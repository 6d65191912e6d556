//! Zero-copy frame-encode sweep: payload size × batch factor
//! (`BENCH_marshal.json`).
//!
//! Measures per-envelope encode latency of the legacy single-buffer
//! encoder ([`Frame::encode_via_copy`]: render body into a fresh buffer,
//! copy it again behind the header, bitwise CRC) against the scatter-
//! gather encoder ([`Frame::try_encode_frame`]: inline small fields,
//! borrow large payloads by refcount, table-driven CRC) over the payload
//! sizes where the paper's self-sized continuations live — tiny sensor
//! events up to quarter-megabyte image frames — and over batch factors 1,
//! 4, and 16 (one gathered frame per batch).
//!
//! The run *asserts* the PR's acceptance criteria before writing the
//! report: at payloads of 64 KiB and above the zero-copy encoder must cut
//! per-envelope encode time by at least 30%, and at 256 B and below it
//! must not regress by more than 5%. Byte-identity of the two encoders is
//! also re-checked on every configuration (a fast-but-wrong encoder fails
//! the run). See WIRE.md for the wire layout and EXPERIMENTS.md for the
//! schema of the emitted JSON.

use std::hint::black_box;
use std::time::Instant;

use mpart::continuation::ContinuationMessage;
use mpart::profile::PseSample;
use mpart_bench::table::{arg_usize, f2, Table};
use mpart_bench::Report;
use mpart_ir::marshal::Marshalled;
use mpart_jecho::envelope::{Frame, ModulatedEvent, ZERO_COPY_MIN_BYTES};
use mpart_jecho::link::data_frame;

/// One synthetic modulated event with a deterministic payload of `size`
/// bytes (patterned, so corruption of the comparison would be caught).
fn event(seq: u64, size: usize) -> ModulatedEvent {
    let payload: Vec<u8> = (0..size).map(|i| ((i * 131 + 17) % 251) as u8).collect();
    ModulatedEvent {
        seq,
        continuation: ContinuationMessage {
            pse: 3,
            payload: Marshalled::from_bytes(payload),
            mod_work: 97,
            epoch: 2,
        },
        samples: vec![PseSample {
            pse: 3,
            mod_work: 97,
            payload_bytes: Some(size as u64),
            was_split: true,
        }],
    }
}

fn frame_for(size: usize, batch: usize) -> Frame {
    let events: Vec<_> = (0..batch as u64).map(|i| (event(i + 1, size), 1_000 + i)).collect();
    data_frame(events.iter())
}

/// Minimum per-call nanoseconds of `f` over `samples` samples of `reps`
/// calls each (min-of-samples suppresses scheduler noise; reps amortize
/// the timer).
fn time_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    f(); // warm-up
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / reps as f64;
        best = best.min(ns);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = arg_usize("samples", if smoke { 5 } else { 9 });

    let payload_sizes: &[usize] =
        if smoke { &[256, 65_536] } else { &[64, 256, 4_096, 65_536, 262_144] };
    let batches: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };

    let mut table = Table::new(
        "Per-envelope encode latency: copy encoder vs zero-copy scatter-gather",
        &[
            "payload_B",
            "batch",
            "mode",
            "copy_ns_env",
            "zerocopy_ns_env",
            "speedup",
            "segments",
            "borrowed_B_env",
        ],
    );

    let mut failures = Vec::new();
    for &size in payload_sizes {
        for &batch in batches {
            let frame = frame_for(size, batch);
            // Byte-identity first: timing a wrong encoder is meaningless.
            let legacy_bytes = frame.encode_via_copy();
            let enc = frame.encode_frame();
            assert_eq!(enc.to_vec(), legacy_bytes, "encoders disagree at {size}B x{batch}");

            // Scale reps so each sample runs ~2-10ms regardless of size.
            let reps = (2_000_000 / legacy_bytes.len().max(200)).clamp(8, 4096);
            let copy_ns = time_ns(samples, reps, || {
                black_box(frame.encode_via_copy());
            }) / batch as f64;
            let zc_ns = time_ns(samples, reps, || {
                black_box(frame.encode_frame());
            }) / batch as f64;
            let speedup = copy_ns / zc_ns;
            let mode = if size >= ZERO_COPY_MIN_BYTES { "borrow" } else { "inline" };
            table.row(vec![
                size.to_string(),
                batch.to_string(),
                mode.to_string(),
                f2(copy_ns),
                f2(zc_ns),
                f2(speedup),
                enc.segments().len().to_string(),
                (enc.borrowed_payload_bytes() / batch as u64).to_string(),
            ]);

            // Acceptance gates (ISSUE 8): >=30% encode-time cut at >=64 KiB,
            // <5% regression at <=256 B.
            if size >= 65_536 && speedup < 1.30 {
                failures.push(format!(
                    "{size}B x{batch}: speedup {speedup:.2} < 1.30 required at >=64 KiB"
                ));
            }
            if size <= 256 && zc_ns > copy_ns * 1.05 {
                failures.push(format!(
                    "{size}B x{batch}: zero-copy {zc_ns:.0}ns regresses >5% over copy {copy_ns:.0}ns"
                ));
            }
        }
    }
    table.note(
        "ns/envelope = min-of-samples over reps; copy = legacy single-buffer encoder \
         (bitwise CRC), zerocopy = scatter-gather EncodedFrame (table CRC, payload \
         borrowed at >=1 KiB); batch>1 encodes one Frame::Batch",
    );
    table.print();

    assert!(failures.is_empty(), "acceptance gates failed:\n  {}", failures.join("\n  "));

    let mut report = Report::new("marshal");
    report
        .param_u64("samples", samples as u64)
        .param_u64("smoke", u64::from(smoke))
        .param_u64("zero_copy_min_bytes", ZERO_COPY_MIN_BYTES as u64)
        .add_table(&table);
    report.finish();
}
