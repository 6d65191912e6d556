//! Failure injection: the runtime must stay safe under lost, duplicated,
//! or corrupted control traffic and malformed continuations.

use std::sync::Arc;

use method_partitioning::core::continuation::ContinuationMessage;
use method_partitioning::core::partitioned::PartitionedHandler;
use method_partitioning::core::profile::{
    DemodMessageProfile, ModMessageProfile, PseSample, TriggerPolicy,
};
use method_partitioning::core::reconfig::ReconfigUnit;
use method_partitioning::cost::{CostModel, DataSizeModel, RuntimeCostKind};
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::marshal::Marshalled;
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::{IrError, Program, Value};

fn setup() -> (Arc<Program>, Arc<PartitionedHandler>, BuiltinRegistry) {
    let program = Arc::new(
        parse_program(
            r#"
            class Item { size: int, data: ref }
            fn sink(event) {
                ok = event instanceof Item
                if ok == 0 goto skip
                it = (Item) event
                d = it.data
                native store(d)
                return 1
            skip:
                return 0
            }
            "#,
        )
        .unwrap(),
    );
    let handler = PartitionedHandler::analyze(
        Arc::clone(&program),
        "sink",
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
    )
    .unwrap();
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("store", 1, |_, _| Ok(Value::Null));
    (program, handler, builtins)
}

fn make_item(program: &Program, ctx: &mut ExecCtx, n: usize) -> Vec<Value> {
    let classes = &program.classes;
    let class = classes.id("Item").unwrap();
    let decl = classes.decl(class);
    let it = ctx.heap.alloc_object(classes, class);
    let d = ctx.heap.alloc_array(ElemType::Byte, n);
    ctx.heap.set_field(it, decl.field("size").unwrap(), Value::Int(n as i64)).unwrap();
    ctx.heap.set_field(it, decl.field("data").unwrap(), Value::Ref(d)).unwrap();
    vec![Value::Ref(it)]
}

#[test]
fn corrupted_continuation_payload_is_rejected_not_crashing() {
    let (program, handler, builtins) = setup();
    let mut sender = ExecCtx::new(&program);
    let args = make_item(&program, &mut sender, 256);
    let run = handler.modulator().handle(&mut sender, args).unwrap();

    // Corrupt the payload in several ways; the demodulator must return an
    // error each time, never panic or execute garbage.
    let base = run.message;
    let corruptions: Vec<ContinuationMessage> = vec![
        // Truncated payload.
        ContinuationMessage {
            pse: base.pse,
            payload: Marshalled::from_bytes(
                base.payload.as_bytes()[..base.payload.wire_size() / 2].to_vec(),
            ),
            mod_work: base.mod_work,
            epoch: base.epoch,
        },
        // Garbage bytes.
        ContinuationMessage {
            pse: base.pse,
            payload: Marshalled::from_bytes(vec![0xFF; 64]),
            mod_work: base.mod_work,
            epoch: base.epoch,
        },
        // Unknown split point.
        ContinuationMessage {
            pse: 4242,
            payload: base.payload.clone(),
            mod_work: base.mod_work,
            epoch: base.epoch,
        },
    ];
    for (i, msg) in corruptions.iter().enumerate() {
        let mut receiver = ExecCtx::with_builtins(&program, builtins.clone());
        let err = handler.demodulator().handle(&mut receiver, msg);
        assert!(err.is_err(), "corruption {i} must be detected");
        assert!(
            matches!(err.unwrap_err(), IrError::Marshal(_) | IrError::Continuation(_)),
            "corruption {i} yields a marshal/continuation error"
        );
        assert!(receiver.trace.is_empty(), "no native ran for corruption {i}");
    }

    // The original message still works after all that.
    let mut receiver = ExecCtx::with_builtins(&program, builtins);
    let out = handler.demodulator().handle(&mut receiver, &base).unwrap();
    assert_eq!(out.ret, Some(Value::Int(1)));
}

#[test]
fn lost_and_duplicated_feedback_keeps_plans_valid() {
    let (_, handler, _) = setup();
    let analysis = Arc::clone(handler.analysis());
    let mut unit = ReconfigUnit::new(analysis, RuntimeCostKind::DataSize, TriggerPolicy::Rate(1));

    let sample = |pse: usize, bytes: u64| PseSample {
        pse,
        mod_work: 10,
        payload_bytes: Some(bytes),
        was_split: true,
    };

    // Lost demod halves: record mod profiles only.
    for _ in 0..10 {
        unit.record_mod(ModMessageProfile {
            samples: vec![sample(0, 5000)],
            split: 0,
            mod_work: 10,
            t_mod: None,
        });
    }
    // Duplicated demod halves, including for messages never seen.
    for _ in 0..20 {
        unit.record_demod(DemodMessageProfile { pse: 0, demod_work: 99, t_demod: None });
        unit.record_demod(DemodMessageProfile { pse: 7, demod_work: 1, t_demod: None });
    }
    // Out-of-range samples are ignored.
    unit.record_samples(&[sample(999, 1)]);

    // Whatever happened, reconfiguration still produces a valid cut.
    let update = unit.force_reconfigure().unwrap();
    handler.plan().install(&update.active);
    handler.plan().validate_cut(handler.analysis()).unwrap();
}

#[test]
fn stale_plan_update_is_still_a_valid_cut() {
    let (program, handler, builtins) = setup();
    // A "stale" update computed from old statistics is applied after the
    // traffic has changed completely: correctness (being a cut) must not
    // depend on traffic.
    let stale: Vec<usize> = (0..handler.analysis().pses().len()).collect();
    handler.plan().install(&stale);
    handler.plan().validate_cut(handler.analysis()).unwrap();

    let mut sender = ExecCtx::new(&program);
    let args = make_item(&program, &mut sender, 8);
    let run = handler.modulator().handle(&mut sender, args).unwrap();
    let mut receiver = ExecCtx::with_builtins(&program, builtins);
    let out = handler.demodulator().handle(&mut receiver, &run.message).unwrap();
    assert_eq!(out.ret, Some(Value::Int(1)));
}

#[test]
fn plan_torn_between_updates_still_yields_correct_results() {
    // Concurrent plan switching: a message may observe a mixture of old
    // and new flags. Any active PSE produces a correct continuation, so
    // the result must be unaffected. Emulate torn states by toggling
    // every combination of two plans' flags.
    let (program, handler, builtins) = setup();
    let n = handler.analysis().pses().len();
    let all: Vec<usize> = (0..n).collect();
    for mask in 1u32..(1 << n.min(5)) {
        let subset: Vec<usize> = all.iter().copied().filter(|i| mask & (1 << i) != 0).collect();
        handler.plan().install(&subset);
        if handler.plan().validate_cut(handler.analysis()).is_err() {
            continue; // a non-cut mixture is rejected by the modulator
        }
        let mut sender = ExecCtx::new(&program);
        let args = make_item(&program, &mut sender, 64);
        let run = handler.modulator().handle(&mut sender, args).unwrap();
        let mut receiver = ExecCtx::with_builtins(&program, builtins.clone());
        let out = handler.demodulator().handle(&mut receiver, &run.message).unwrap();
        assert_eq!(out.ret, Some(Value::Int(1)), "plan {subset:?}");
    }
}

#[test]
fn adaptation_survives_a_lossy_control_channel() {
    use method_partitioning::jecho::{SimConfig, SimSession};
    use method_partitioning::simnet::{Host, Link, SimTime};

    // A handler with a compaction stage, so the late split actually
    // shrinks the wire (unlike `sink`, whose every split ships the blob).
    let program = Arc::new(
        parse_program(
            r#"
            class Item { size: int, data: ref }
            fn digestion(event) {
                ok = event instanceof Item
                if ok == 0 goto skip
                it = (Item) event
                g = call digest(it)
                native store(g)
                return 1
            skip:
                return 0
            }
            "#,
        )
        .unwrap(),
    );
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("store", 1, |_, _| Ok(Value::Null));
    let program_for_digest = Arc::clone(&program);
    builtins.register_pure(
        "digest",
        |_, _| 10,
        move |heap, _args| {
            let classes = &program_for_digest.classes;
            let class = classes.id("Item").unwrap();
            let decl = classes.decl(class);
            let out = heap.alloc_object(classes, class);
            let small = heap.alloc_array(ElemType::Byte, 16);
            heap.set_field(out, decl.field("size").unwrap(), Value::Int(16))?;
            heap.set_field(out, decl.field("data").unwrap(), Value::Ref(small))?;
            Ok(Value::Ref(out))
        },
    );

    let make = |loss: f64| {
        SimSession::adaptive(
            Arc::clone(&program),
            "digestion",
            Arc::new(DataSizeModel::new()),
            builtins.clone(),
            builtins.clone(),
            SimConfig::new(
                Host::new("s", 1_000_000.0),
                Link::new("l", SimTime::from_millis(1), 1_000_000.0),
                Host::new("r", 1_000_000.0),
                TriggerPolicy::Rate(1),
            )
            .with_control_loss(loss, 77),
        )
        .unwrap()
    };

    // 60% of plan updates are lost; large items still force adaptation to
    // the post-digest split eventually.
    let mut lossy = make(0.6);
    for _ in 0..20 {
        let p = Arc::clone(&program);
        lossy.deliver(move |ctx| Ok(make_item(&p, ctx, 50_000))).unwrap();
    }
    assert!(lossy.plans_dropped() >= 1, "losses actually happened");
    let last = lossy.reports().last().unwrap();
    assert!(last.wire_bytes < 1000, "converged despite losses: {} bytes", last.wire_bytes);

    // Total loss: the initial static plan stays forever, and nothing breaks.
    let mut dead = make(1.0);
    for _ in 0..8 {
        let p = Arc::clone(&program);
        dead.deliver(move |ctx| Ok(make_item(&p, ctx, 50_000))).unwrap();
    }
    assert_eq!(dead.plan_installs(), 0);
    assert_eq!(dead.reports().last().unwrap().ret, Some(Value::Int(1)));
}

#[test]
fn duplicated_event_delivery_is_idempotent_at_the_subscriber() {
    use method_partitioning::jecho::{Frame, ModulatedEvent, TcpReceiver};
    use std::io::Write as _;
    use std::net::TcpStream;

    let (program, _, builtins) = setup();
    let receiver = TcpReceiver::bind(
        Arc::clone(&program),
        "sink",
        Arc::new(DataSizeModel::new()),
        builtins,
        TriggerPolicy::Never,
    )
    .unwrap();
    let modulator = receiver.handler().modulator();
    let event = |seq: u64| {
        let mut ctx = ExecCtx::without_digests(&program, BuiltinRegistry::new());
        let args = make_item(&program, &mut ctx, 512);
        let run = modulator.handle(&mut ctx, args).unwrap();
        let event = ModulatedEvent { seq, continuation: run.message, samples: run.samples };
        Frame::Event { event, t_mod_nanos: 0 }.encode()
    };

    // One modulated event, delivered three times (an at-least-once wire
    // under retransmission); then a fresh one.
    let first = event(1);
    let mut wire = TcpStream::connect(("127.0.0.1", receiver.port())).unwrap();
    for _ in 0..3 {
        wire.write_all(&first).unwrap();
    }
    wire.write_all(&event(2)).unwrap();

    // The duplicates are acknowledged but not re-applied: exactly two
    // outcomes surface, in seq order.
    assert_eq!(receiver.next_outcome().unwrap().seq, 1);
    assert_eq!(receiver.next_outcome().unwrap().seq, 2);
    wire.write_all(&Frame::Shutdown.encode()).unwrap();
    assert_eq!(receiver.join().unwrap(), 2, "each event applied exactly once");
}

#[test]
fn receiver_restart_mid_stream_is_survived_by_the_supervisor() {
    use method_partitioning::ir::interp::BuiltinRegistry as Builtins;
    use method_partitioning::jecho::{RetryPolicy, Supervisor, TcpReceiver};
    use std::time::Duration;

    let (program, _, builtins) = setup();
    // The receiver drops the connection after 4 events (a restarting
    // subscriber front-end); the supervisor must notice the stalled ack
    // watermark, redial, and replay its unacked window.
    let receiver = TcpReceiver::bind_faulty(
        Arc::clone(&program),
        "sink",
        Arc::new(DataSizeModel::new()),
        builtins,
        TriggerPolicy::Rate(1),
        4,
    )
    .unwrap();
    let mut supervisor = Supervisor::new(
        Arc::clone(&program),
        Arc::clone(receiver.handler()),
        Builtins::new(),
        receiver.port(),
        RetryPolicy { stall_timeout: Duration::from_millis(100), ..RetryPolicy::default() },
    );
    for _ in 0..12 {
        let p = Arc::clone(&program);
        // Sends may land in the dying socket's buffer; the unacked window
        // recovers them after the reconnect.
        let _ = supervisor.publish(move |ctx| Ok(make_item(&p, ctx, 1024)));
    }
    supervisor.await_drain(Duration::from_secs(30)).unwrap();
    assert!(supervisor.reconnects() >= 1, "the restart actually happened");
    assert_eq!(supervisor.acked(), 12, "no event lost");
    assert_eq!(supervisor.unacked(), 0);
    supervisor.shutdown(Duration::from_secs(5)).unwrap();
    assert_eq!(receiver.join().unwrap(), 12, "no event double-applied");
}

#[test]
fn panicking_native_fails_only_its_envelope_on_the_session_manager() {
    use method_partitioning::core::failure::FailureKind;
    use method_partitioning::core::session::{SessionConfig, SessionManager};
    use std::sync::atomic::{AtomicU64, Ordering};

    let (program, _, _) = setup();
    // A receiver-side native that panics on its second execution: one
    // poisoned envelope among healthy traffic.
    let calls = Arc::new(AtomicU64::new(0));
    let mut builtins = BuiltinRegistry::new();
    let seen = Arc::clone(&calls);
    builtins.register_native("store", 1, move |_, _| {
        if seen.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
            panic!("injected native panic");
        }
        Ok(Value::Null)
    });

    let mut mgr =
        SessionManager::new(SessionConfig::default().with_workers(1).with_degradation(3, 3));
    let id = mgr
        .open_session(
            Arc::clone(&program),
            "sink",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            builtins,
        )
        .unwrap();

    let mut failures = Vec::new();
    for n in 1..=5u64 {
        let p = Arc::clone(&program);
        match mgr.deliver(id, move |ctx| Ok(make_item(&p, ctx, 64))) {
            Ok(out) => assert_eq!(out.ret, Some(Value::Int(1)), "envelope {n} applied"),
            Err(e) => {
                assert!(matches!(e, IrError::HandlerPanic(_)), "isolated, not fatal: {e}");
                failures.push(n);
            }
        }
    }
    // Exactly the poisoned envelope failed; the worker survived and kept
    // serving the other four.
    assert_eq!(failures, vec![2], "only the panicking envelope failed");
    let letters = mgr.dead_letters(id).unwrap();
    assert_eq!(letters.len(), 1);
    assert_eq!(letters[0].seq, 2);
    assert_eq!(letters[0].kind, FailureKind::Panic);
    let snap = mgr.handler(id).unwrap().obs().registry().snapshot();
    assert_eq!(
        snap.get("handler_panics_total", &[("side", "demodulator")],),
        Some(&method_partitioning::obs::MetricValue::Counter(1)),
    );
    assert_eq!(snap.counter_sum("quarantined_total"), 1);
    mgr.shutdown();
}

#[test]
fn kill_and_restart_recovers_sessions_from_journal_with_zero_reanalysis() {
    use method_partitioning::core::journal::SessionJournal;
    use method_partitioning::core::session::{SessionConfig, SessionManager};
    use method_partitioning::obs::MetricValue;

    let (program, _, builtins) = setup();
    let path = std::env::temp_dir()
        .join(format!("mpart-failure-injection-recovery-{}.journal", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);

    // Incumbent process: three journaled sessions, one busy enough to
    // reconfigure, all checkpointing plan commits and ack watermarks.
    let journal = Arc::new(SessionJournal::at_path(&path_str).unwrap());
    let config = SessionConfig::default()
        .with_workers(2)
        .with_trigger(TriggerPolicy::Rate(1))
        .with_journal(Arc::clone(&journal));
    let mut incumbent = SessionManager::new(config.clone());
    let ids: Vec<_> = (0..3)
        .map(|_| {
            incumbent
                .open_session(
                    Arc::clone(&program),
                    "sink",
                    Arc::new(DataSizeModel::new()),
                    BuiltinRegistry::new(),
                    builtins.clone(),
                )
                .unwrap()
        })
        .collect();
    for _ in 0..8 {
        let p = Arc::clone(&program);
        incumbent.deliver(ids[0], move |ctx| Ok(make_item(&p, ctx, 50_000))).unwrap();
    }
    let p = Arc::clone(&program);
    incumbent.deliver(ids[1], move |ctx| Ok(make_item(&p, ctx, 64))).unwrap();
    let busy_active = incumbent.handler(ids[0]).unwrap().plan().active();
    let cache = Arc::clone(incumbent.cache());
    // "Kill": the manager goes away; only the journal file and the warm
    // analysis cache survive the crash.
    incumbent.shutdown();

    // Restart: replay the journal into a manager over the shared cache.
    let journal = Arc::new(SessionJournal::at_path(&path_str).unwrap());
    let snapshots = journal.replay().unwrap();
    assert_eq!(snapshots.len(), 3, "every session was journaled");
    assert_eq!(snapshots[&0].watermark, 8);
    assert_eq!(snapshots[&0].active, busy_active, "the journal captured the live cut");
    let misses_before = cache.misses();
    let mut restarted = SessionManager::with_shared_cache(config, cache);
    for snapshot in snapshots.values() {
        restarted
            .restore_session(
                Arc::clone(&program),
                &snapshot.func,
                Arc::new(DataSizeModel::new()),
                BuiltinRegistry::new(),
                builtins.clone(),
                snapshot,
            )
            .unwrap();
    }
    // Zero re-analysis: the cache-miss gauge is unchanged across the
    // restart (every restore was a cache hit).
    assert_eq!(restarted.cache().misses(), misses_before);
    let snap = restarted.obs().registry().snapshot();
    assert_eq!(
        snap.get("analysis_cache_misses", &[]),
        Some(&MetricValue::Gauge(misses_before as f64)),
        "cache-miss gauge unchanged after recovery"
    );
    assert_eq!(snap.get("sessions_recovered", &[]), Some(&MetricValue::Gauge(3.0)));
    assert_eq!(restarted.recovered(), 3);
    assert_eq!(
        restarted.handler(0).unwrap().plan().active(),
        busy_active,
        "the journaled plan was reinstalled without re-analysis"
    );
    // Sequence numbering resumes past the journaled watermark.
    let p = Arc::clone(&program);
    let out = restarted.deliver(0, move |ctx| Ok(make_item(&p, ctx, 64))).unwrap();
    assert_eq!(out.seq, 9, "no acked message re-delivered, none skipped");
    restarted.shutdown();
    let _ = std::fs::remove_file(&path);
}
