//! Throughput-scale benchmark: sessions × batch-size sweep over the
//! simulated wire.
//!
//! Each cell opens N concurrent handler sessions, builds every handler
//! through a fresh shared [`AnalysisCache`] (so the static analysis — UG
//! construction, liveness, the target-path DAG, ConvexCut, min-cut — is
//! paid once and shared N−1 times), and drives M messages per session through
//! the supervised sim wire with envelope batching at the given K. The
//! timed region deliberately *includes* handler construction: amortizing
//! the analysis across sessions is exactly the speedup the cache exists
//! to buy, and the sweep's `speedup vs 1 session` column makes it
//! visible.
//!
//! The handler under test is a *branchy* synthetic pipeline: one message
//! walks a single path (a few dozen statements) out of `2^depth`. Static
//! analysis never lists those paths; it costs about a quarter of a
//! millisecond at the default depth (Intel Xeon, release build), a few
//! session opens' worth, so the cache's share of the speedup is small.
//!
//! Wall-clock time measures real CPU work (this is a single-machine
//! harness; the virtual-time pipeline inside each session is unrelated to
//! the throughput measured here).
//!
//! `--tcp` swaps the simulated wire for **real loopback sockets**: each
//! session is a [`TcpReceiver`] on an ephemeral port and a supervised
//! [`Supervisor`] sender with envelope batching at the same K, both wire
//! halves built from one cached analysis
//! ([`TcpReceiver::bind_with_handler`]). Same sweep, same exactly-once
//! assertion — the cells then measure framing, checksums, and kernel
//! round-trips instead of the virtual-time pipeline.
//!
//! Knobs: `--messages <M>` per session, `--depth <D>` diamond branches,
//! `--tcp` (real sockets), `--smoke` (tiny sweep for CI), `--json <path>`
//! for the machine-readable `BENCH_throughput.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpart::profile::TriggerPolicy;
use mpart::PartitionedHandler;
use mpart_analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use mpart_bench::table::{arg_usize, f2, Table};
use mpart_bench::Report;
use mpart_cost::DataSizeModel;
use mpart_ir::interp::BuiltinRegistry;
use mpart_ir::parse::parse_program;
use mpart_ir::{Program, Value};
use mpart_jecho::{RetryPolicy, SimConfig, SimSession, Supervisor, TcpReceiver};
use mpart_simnet::{FaultPlan, Host, Link, SimTime};

/// A handler with `depth` sequential diamond branches ahead of the
/// delivery call: `2^depth` target paths, of which one execution follows
/// one. Analysis cost grows with the ladder's size, not its path count.
fn synthetic_source(depth: usize) -> String {
    let mut s = String::from("fn churn(x) {\n    t = x\n");
    for i in 0..depth {
        writeln!(s, "    b{i} = t - {i}").unwrap();
        writeln!(s, "    if b{i} == 0 goto skip{i}").unwrap();
        writeln!(s, "    t = t + {}", i + 1).unwrap();
        writeln!(s, "skip{i}:").unwrap();
    }
    s.push_str("    native sink(t)\n    return t\n}\n");
    s
}

fn receiver_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_native("sink", 1, |_, _| Ok(Value::Null));
    b
}

struct Cell {
    sessions: usize,
    batch: usize,
    elapsed_ms: f64,
    msgs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    envelope_batches: u64,
    batched_events: u64,
}

/// One sweep cell: N sessions sharing a fresh cache, M messages each,
/// batch size K.
fn run_cell(program: &Arc<Program>, sessions: usize, batch: usize, messages: usize) -> Cell {
    let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);
    let start = Instant::now();
    let mut delivered = 0u64;
    let mut envelope_batches = 0u64;
    let mut batched_events = 0u64;
    for s in 0..sessions {
        // The cache is the whole point: session 0 misses and computes,
        // sessions 1..N share the Arc'd analysis.
        let handler = PartitionedHandler::analyze_cached(
            Arc::clone(program),
            "churn",
            Arc::new(DataSizeModel::new()),
            &cache,
        )
        .expect("analysis");
        // A benign fault plan engages the supervised (framed) wire so
        // envelope batching is actually exercised; nothing is dropped.
        let config = SimConfig::new(
            Host::new("producer", 1_000_000.0),
            Link::new("lan", SimTime::from_millis(1), 1_000_000.0)
                .with_fault_plan(FaultPlan::new(s as u64)),
            Host::new("consumer", 1_000_000.0),
            TriggerPolicy::Never,
        )
        .with_batching(batch, SimTime::from_millis(1_000));
        let mut session = SimSession::adaptive_with_handler(
            Arc::clone(program),
            handler,
            BuiltinRegistry::new(),
            receiver_builtins(),
            config,
        )
        .expect("session");
        session.run(messages, |seq, _| Ok(vec![Value::Int(seq as i64)])).expect("deliver");
        session.drain(100).expect("drain");
        delivered += session.applied_results().len() as u64;
        envelope_batches += session.envelope_batches();
        batched_events += session.batched_events();
    }
    let elapsed = start.elapsed();
    assert_eq!(delivered, (sessions * messages) as u64, "every message applied exactly once");
    Cell {
        sessions,
        batch,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        msgs_per_sec: delivered as f64 / elapsed.as_secs_f64(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        envelope_batches,
        batched_events,
    }
}

/// One `--tcp` sweep cell: N sequential sessions, each a real
/// loopback-socket pair (receiver thread + supervised sender) with
/// envelope batching at K, all handlers built through one shared cache.
fn run_cell_tcp(program: &Arc<Program>, sessions: usize, batch: usize, messages: usize) -> Cell {
    let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);
    let start = Instant::now();
    let mut delivered = 0u64;
    let mut envelope_batches = 0u64;
    let mut batched_events = 0u64;
    for _ in 0..sessions {
        let handler = PartitionedHandler::analyze_cached(
            Arc::clone(program),
            "churn",
            Arc::new(DataSizeModel::new()),
            &cache,
        )
        .expect("analysis");
        let receiver = TcpReceiver::bind_with_handler(
            Arc::clone(program),
            Arc::clone(&handler),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .expect("bind");
        let mut supervisor = Supervisor::new(
            Arc::clone(program),
            Arc::clone(&handler),
            BuiltinRegistry::new(),
            receiver.port(),
            RetryPolicy::default(),
        )
        .with_batching(batch, Duration::from_millis(50));
        for seq in 0..messages {
            supervisor.publish(move |_| Ok(vec![Value::Int(seq as i64)])).expect("publish");
        }
        supervisor.shutdown(Duration::from_secs(30)).expect("drain");
        let snap = handler.obs().registry().snapshot();
        envelope_batches += snap.counter_sum("envelope_batches_total");
        batched_events += snap.counter_sum("batched_events_total");
        delivered += receiver.join().expect("join");
    }
    let elapsed = start.elapsed();
    assert_eq!(delivered, (sessions * messages) as u64, "every message applied exactly once");
    Cell {
        sessions,
        batch,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        msgs_per_sec: delivered as f64 / elapsed.as_secs_f64(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        envelope_batches,
        batched_events,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tcp = std::env::args().any(|a| a == "--tcp");
    let messages = arg_usize("messages", if smoke { 8 } else { 32 });
    let depth = arg_usize("depth", 14);
    let session_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let batch_sizes: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };

    let program = Arc::new(parse_program(&synthetic_source(depth)).expect("synthetic program"));

    let mut table = Table::new(
        if tcp {
            "Throughput sweep: sessions x batch size (branchy handler, loopback TCP wire)"
        } else {
            "Throughput sweep: sessions x batch size (branchy handler, supervised sim wire)"
        },
        &[
            "sessions",
            "batch K",
            "elapsed (ms)",
            "msgs/sec",
            "speedup vs 1 session",
            "cache hits",
            "cache misses",
            "batches",
            "batched events",
        ],
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &batch in batch_sizes {
        for &sessions in session_counts {
            cells.push(if tcp {
                run_cell_tcp(&program, sessions, batch, messages)
            } else {
                run_cell(&program, sessions, batch, messages)
            });
        }
    }

    for cell in &cells {
        let baseline = cells
            .iter()
            .find(|c| c.batch == cell.batch && c.sessions == 1)
            .expect("the sweep always includes the 1-session baseline");
        table.row(vec![
            cell.sessions.to_string(),
            cell.batch.to_string(),
            f2(cell.elapsed_ms),
            f2(cell.msgs_per_sec),
            f2(cell.msgs_per_sec / baseline.msgs_per_sec),
            cell.cache_hits.to_string(),
            cell.cache_misses.to_string(),
            cell.envelope_batches.to_string(),
            cell.batched_events.to_string(),
        ]);
    }
    table.note(
        "timed region includes handler construction: N sessions pay one \
         analysis (1 miss, N-1 cache hits), so multi-session throughput \
         amortizes the static-analysis cost",
    );
    table.print();

    let mut report = Report::new("throughput");
    report
        .param_u64("messages_per_session", messages as u64)
        .param_u64("depth", depth as u64)
        .param_u64("smoke", u64::from(smoke))
        .param_u64("tcp", u64::from(tcp))
        .add_table(&table);
    report.finish();
}
