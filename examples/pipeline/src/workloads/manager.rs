//! `compute_dense` and `manager_journal`: in-process `SessionManager`
//! sessions, with and without a file-backed journal.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use method_partitioning::core::journal::SessionJournal;
use method_partitioning::core::session::{SessionConfig, SessionManager, SessionOutcome};

use super::{err, Rep, Res, Tenths};
use crate::fixture::Fixture;
use crate::spec::{Sizes, WorkloadKind};
use crate::trace::{Tracer, NO_ENVELOPE};

/// Per-session sequence and result checks over the outcomes of one run.
struct Checker {
    /// Envelopes applied per session so far.
    applied: Vec<u64>,
    wrong: u64,
    wire_bytes: u64,
}

impl Checker {
    fn check(&mut self, fx: &Fixture, session: usize, i: u64, outcome: &SessionOutcome) {
        self.applied[session] += 1;
        if outcome.seq != self.applied[session] || !fx.matches(i, &outcome.ret) {
            self.wrong += 1;
        }
        self.wire_bytes += outcome.wire_bytes as u64;
    }
}

pub fn rep(
    kind: WorkloadKind,
    fx: &Fixture,
    sizes: &Sizes,
    scratch: &Path,
    started: Instant,
    tracer: &mut Tracer,
) -> Res<Rep> {
    let journaled = kind == WorkloadKind::ManagerJournal;
    let journal_path = scratch.join("journal.log");
    let _ = std::fs::remove_file(&journal_path);
    let journal = if journaled {
        Some(Arc::new(SessionJournal::at_path(&journal_path).map_err(err("journal"))?))
    } else {
        None
    };
    let workers = if journaled { 2 } else { 1 };
    let mut config = SessionConfig::default().with_workers(workers);
    if let Some(journal) = &journal {
        config = config.with_journal(Arc::clone(journal));
    }
    let mut manager = SessionManager::new(config);
    let mut rep = Rep::default();
    let mut ids = Vec::with_capacity(sizes.sessions);
    for _ in 0..sizes.sessions {
        let id = tracer
            .time("session.open", "", NO_ENVELOPE, || {
                manager.open_session(
                    Arc::clone(&fx.program),
                    fx.func,
                    Arc::clone(&fx.model),
                    fx.sender_builtins.clone(),
                    fx.receiver_builtins.clone(),
                )
            })
            .map_err(err("open_session"))?;
        // The manager analysed and compiled the handler itself; what is
        // left of the fixture's preparation is the plan pin.
        let handler = manager.handler(id).expect("session just opened");
        fx.prepare(handler).map_err(err("prepare"))?;
        ids.push(id);
    }

    let mut sent = 0u64;
    let mut check = Checker { applied: vec![0; ids.len()], wrong: 0, wire_bytes: 0 };
    // Closed loop: one delivery at a time, round-robin over the sessions.
    let mut closed =
        |manager: &SessionManager, check: &mut Checker, tracer: &mut Tracer| -> Res<()> {
            let i = sent;
            let s = (i % ids.len() as u64) as usize;
            let pending = tracer
                .time("session.submit", "", i, || manager.submit(ids[s], fx.make_event(i)))
                .map_err(err("submit"))?;
            let outcome =
                tracer.time("session.wait", "", i, || pending.wait()).map_err(err("wait"))?;
            check.check(fx, s, i, &outcome);
            sent += 1;
            Ok(())
        };
    let mut quiet = Tracer::new(false);
    for _ in 0..sizes.warmup {
        closed(&manager, &mut check, &mut quiet)?;
    }
    rep.setup_s = started.elapsed().as_secs_f64();

    let latency_start = Instant::now();
    let mut tenths = Tenths::start(sizes.latency_frames);
    for n in 0..sizes.latency_frames {
        tenths.mark(n);
        let t = Instant::now();
        // Spans cover the region `msgs_per_s` is taken over, only.
        let tracer = if sizes.envelopes == 0 { &mut *tracer } else { &mut quiet };
        closed(&manager, &mut check, tracer)?;
        rep.latencies_ns.push(t.elapsed().as_nanos() as u64);
    }
    if sizes.envelopes == 0 {
        // Closed loop is this workload's only load: one region, both metrics.
        rep.late_over_early = tenths.finish();
        rep.timed_s = latency_start.elapsed().as_secs_f64();
        rep.timed_msgs = sizes.latency_frames;
    } else {
        // One generator keeps one delivery outstanding per session.
        let timed = Instant::now();
        let rounds = sizes.envelopes / ids.len() as u64;
        let mut tenths = Tenths::start(rounds);
        let mut pendings = Vec::with_capacity(ids.len());
        for round in 0..rounds {
            tenths.mark(round);
            for (s, id) in ids.iter().enumerate() {
                let i = sent + s as u64;
                let pending = tracer
                    .time("session.submit", "", i, || manager.submit(*id, fx.make_event(i)))
                    .map_err(err("submit"))?;
                pendings.push(pending);
            }
            for (s, pending) in pendings.drain(..).enumerate() {
                let i = sent + s as u64;
                let outcome =
                    tracer.time("session.wait", "", i, || pending.wait()).map_err(err("wait"))?;
                check.check(fx, s, i, &outcome);
            }
            sent += ids.len() as u64;
        }
        rep.late_over_early = tenths.finish();
        rep.timed_s = timed.elapsed().as_secs_f64();
        rep.timed_msgs = rounds * ids.len() as u64;
    }

    let sheds = manager.sheds();
    let trace_events: u64 = ids
        .iter()
        .filter_map(|id| manager.handler(*id))
        .map(|h| h.obs().trace().recorded())
        .sum::<u64>()
        + manager.obs().trace().recorded();
    let processed = manager.shutdown();
    rep.attempted = sent;
    rep.failed = check.wrong + sent.abs_diff(processed);
    rep.wire_bytes = check.wire_bytes;
    rep.wire_msgs = sent;
    rep.put("session.sheds", sheds as f64);
    rep.put("obs.trace_events_per_msg", trace_events as f64 / sent as f64);

    if let Some(journal) = journal {
        // The journal's read side, beside its write side: every session's
        // replayed watermark must equal what that session applied.
        let lines = journal.len();
        let file_bytes = std::fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        let t = Instant::now();
        let snapshots = journal.replay().map_err(err("replay"))?;
        let replay_ms = t.elapsed().as_secs_f64() * 1e3;
        let behind = ids
            .iter()
            .enumerate()
            .filter(|(s, id)| {
                snapshots.get(&(**id as u64)).map(|snap| snap.watermark) != Some(check.applied[*s])
            })
            .count() as u64;
        rep.failed += behind;
        let t = Instant::now();
        journal.compact().map_err(err("compact"))?;
        rep.put("journal.compact_ms", t.elapsed().as_secs_f64() * 1e3);
        rep.put("journal.replay_ms", replay_ms);
        rep.put("journal.lines_retained", lines as f64);
        rep.put("journal.records_per_msg", lines as f64 / sent as f64);
        rep.put("journal.file_bytes_per_msg", file_bytes as f64 / sent as f64);
        drop(journal);
        let _ = std::fs::remove_file(&journal_path);
    }
    Ok(rep)
}
