//! End-to-end adaptation tests: the Reconfiguration Unit must converge to
//! the plan a brute-force oracle would pick, and react to load steps the
//! way the paper describes.

use std::sync::Arc;

use method_partitioning::apps::image::{image_program, image_session, make_frame, ImageVersion};
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::core::reconfig::{runtime_weights, select_active_set};
use method_partitioning::cost::{DataSizeModel, RuntimeCostKind};
use method_partitioning::flow::brute_force_min_cut;
use mpart::PartitionedHandler;
use mpart_analysis::ENTRY;

/// Brute-force oracle: enumerate the Unit Graph as an explicit edge list
/// and find the true minimum cut with exhaustive search, then compare
/// against the runtime's Dinic-based selection.
#[test]
fn min_cut_selection_matches_brute_force_oracle() {
    let program = image_program().unwrap();
    let handler =
        PartitionedHandler::analyze(Arc::clone(&program), "push", Arc::new(DataSizeModel::new()))
            .unwrap();
    let analysis = handler.analysis();

    // Try several weight assignments, including ties and extremes.
    let n = analysis.pses().len();
    let weight_sets: Vec<Vec<u64>> = vec![
        vec![10; n],
        (0..n as u64).map(|i| i * 100 + 1).collect(),
        (0..n as u64).map(|i| 1000 - i * 100).collect(),
        vec![0; n],
    ];

    for weights in weight_sets {
        let active = select_active_set(analysis, &weights).unwrap();
        let chosen: u64 = active.iter().map(|&p| weights[p]).sum();

        // Build the explicit graph for the oracle: node ids are pcs, with
        // source = n_nodes (entry) and sink = n_nodes + 1.
        let n_nodes = analysis.ug.len();
        let source = n_nodes;
        let sink = n_nodes + 1;
        let big = 1_000_000u64;
        let mut edges: Vec<(usize, usize, u64)> = Vec::new();
        let entry_pse = analysis.pses().iter().position(|p| p.edge.from == ENTRY);
        edges.push((source, analysis.ug.start(), entry_pse.map(|p| weights[p]).unwrap_or(big)));
        for e in analysis.ug.edges() {
            let cap = analysis.pse_for_edge(e).map(|p| weights[p]).unwrap_or(big);
            edges.push((e.from, e.to, cap));
        }
        for s in analysis.stops.iter() {
            edges.push((s, sink, big));
        }
        let oracle = brute_force_min_cut(n_nodes + 2, &edges, source, sink);
        assert_eq!(chosen, oracle, "weights {weights:?}: plan {active:?}");
    }
}

/// The adaptive image session must converge to (near) the per-scenario
/// optimum and, after a scenario flip, re-converge within a few frames.
#[test]
fn image_session_adapts_within_a_few_frames() {
    let program = image_program().unwrap();
    let mut session = image_session(ImageVersion::MethodPartitioning).unwrap();

    // Phase 1: large frames -> resize at server -> small payloads.
    for _ in 0..10 {
        let p = Arc::clone(&program);
        session.deliver(move |ctx| make_frame(&p, ctx, 200)).unwrap();
    }
    let last = session.reports().last().unwrap();
    assert!(last.wire_bytes < 27_000, "large frames resized: {}", last.wire_bytes);

    // Phase 2: small frames -> ship raw.
    for _ in 0..10 {
        let p = Arc::clone(&program);
        session.deliver(move |ctx| make_frame(&p, ctx, 80)).unwrap();
    }
    let last = session.reports().last().unwrap();
    assert!(last.wire_bytes < 7_000, "small frames ship raw: {}", last.wire_bytes);

    // Count how many frames of phase 2 were needed before the plan
    // settled: adaptation lag should be small (the paper's "fine-grain,
    // low overhead adaptation").
    let phase2 = &session.reports()[10..];
    let lag = phase2.iter().position(|r| r.wire_bytes < 7_000).expect("adaptation happened");
    assert!(lag <= 4, "adaptation lag {lag} frames");
}

/// The ExecTime weights must move toward the loaded side's disadvantage:
/// when the receiver speed estimate halves, the selected split moves
/// toward the sender.
#[test]
fn exec_time_weights_shift_with_speed_estimates() {
    use method_partitioning::apps::sensor::{sensor_cost_model, sensor_program};
    use method_partitioning::core::profile::{
        DemodMessageProfile, ModMessageProfile, ProfilingUnit, PseSample,
    };

    let program = sensor_program().unwrap();
    let handler =
        PartitionedHandler::analyze(Arc::clone(&program), "process", sensor_cost_model()).unwrap();
    let analysis = handler.analysis();
    let n = analysis.pses().len();

    let feed = |speed_demod: f64| -> Vec<usize> {
        let mut unit = ProfilingUnit::new(n, 1.0);
        // Synthetic per-edge work curve: a split at node `t` has done t/N
        // of the total work (keyed by program position, not PSE id — the
        // entry PSE sits at position 0 with no modulator work at all).
        let total = 60_000.0;
        let n_nodes = analysis.ug.len() as f64;
        let samples: Vec<PseSample> = analysis
            .pses()
            .iter()
            .enumerate()
            .map(|(i, p)| PseSample {
                pse: i,
                mod_work: (total * p.edge.to as f64 / n_nodes) as u64,
                payload_bytes: Some(1000),
                was_split: false,
            })
            .collect();
        unit.record_mod(ModMessageProfile {
            samples,
            split: n - 1,
            mod_work: total as u64,
            t_mod: Some(total / 1_000_000.0), // sender speed 1M
        });
        unit.record_demod(DemodMessageProfile {
            pse: n - 1,
            demod_work: 100,
            t_demod: Some(100.0 / speed_demod),
        });
        let weights = runtime_weights(analysis, RuntimeCostKind::ExecTime, &unit.snapshot());
        select_active_set(analysis, &weights).unwrap()
    };

    let balanced = feed(1_000_000.0);
    let slow_receiver = feed(250_000.0);
    // With a 4x slower receiver the split must move later (more work on
    // the sender side): the chosen main-path PSE index grows.
    let main_pse =
        |plan: &[usize]| plan.iter().map(|&p| analysis.pses()[p].edge.to).max().unwrap_or(0);
    assert!(
        main_pse(&slow_receiver) > main_pse(&balanced),
        "balanced {balanced:?} vs slow receiver {slow_receiver:?}"
    );
}

/// Adaptation must also stop: with a `Never` trigger nothing ever changes
/// even under wildly shifting traffic.
#[test]
fn never_trigger_freezes_the_plan() {
    let program = image_program().unwrap();
    let mut session = image_session(ImageVersion::ShipRaw).unwrap();
    let initial = session.handler().plan().active();
    for side in [80i64, 200, 80, 200, 200, 80] {
        let p = Arc::clone(&program);
        session.deliver(move |ctx| make_frame(&p, ctx, side)).unwrap();
    }
    assert_eq!(session.handler().plan().active(), initial);
    assert_eq!(session.plan_installs(), 0);
    let _ = TriggerPolicy::Never; // referenced for documentation purposes
}

// ---------------------------------------------------------------------------
// One weight across a regime shift: exec-time with a per-byte charge.
// ---------------------------------------------------------------------------

/// A staged handler for the regime-shift test: `decode` inflates the
/// frame 4× (the intermediate is the biggest thing in flight), two
/// `grind` stages burn `32 × rounds` work units each, and the `display`
/// native pins the tail to the receiver. Splittable before, between, and
/// after the pure stages.
const SHIFT_SRC: &str = r#"
    class Frame { n: int, rounds: int, buff: ref }

    fn show(event) {
        ok = event instanceof Frame
        if ok == 0 goto skip
        f = (Frame) event
        m = f.n
        r = f.rounds
        big = call decode(f, m)
        d1 = call grind1(big, r)
        d2 = call grind2(d1, r)
        native display(big)
        return d2
    skip:
        return 0
    }
"#;

fn shift_arg_int(args: &[method_partitioning::ir::Value], idx: usize) -> i64 {
    match args.get(idx) {
        Some(method_partitioning::ir::Value::Int(v)) => *v,
        _ => 0,
    }
}

fn shift_builtins() -> method_partitioning::ir::interp::BuiltinRegistry {
    use method_partitioning::ir::types::ElemType;
    use method_partitioning::ir::Value;
    let mut b = method_partitioning::ir::interp::BuiltinRegistry::new();
    b.register_pure(
        "decode",
        |_, args| 16 + shift_arg_int(args, 1).max(0) as u64 / 64,
        |heap, args| {
            let inflated = (shift_arg_int(args, 1).max(0) as usize) * 4;
            Ok(Value::Ref(heap.alloc_array(ElemType::Byte, inflated)))
        },
    );
    for stage in ["grind1", "grind2"] {
        b.register_pure(
            stage,
            |_, args| 32 * shift_arg_int(args, 1).max(0) as u64,
            |_, args| Ok(Value::Int(shift_arg_int(args, 1))),
        );
    }
    b.register_native("display", 4, |_, _| Ok(Value::Null));
    b
}

/// End-to-end regime shift under one weight: a session priced by the
/// exec-time model plus a per-byte charge (`β·bytes + max(w_mod, w_demod)`
/// per PSE) keeps `decode` on the receiver while frames are large and
/// cheap to process, moves to the balanced cut between the grind stages
/// within one trigger window once they turn small and expensive, and comes
/// back on the flip — with one analysis and no model switch.
#[test]
fn per_byte_exec_time_follows_a_regime_shift_with_one_analysis() {
    use method_partitioning::core::session::{SessionConfig, SessionManager, SessionOutcome};
    use method_partitioning::cost::ExecTimeModel;
    use method_partitioning::ir::parse::parse_program;
    use method_partitioning::ir::types::ElemType;
    use method_partitioning::ir::{Program, Value};

    const WINDOW: usize = 4;
    let program = Arc::new(parse_program(SHIFT_SRC).unwrap());
    let mut mgr = SessionManager::new(
        SessionConfig::default()
            .with_workers(1)
            .with_trigger(TriggerPolicy::Rate(WINDOW as u64))
            .with_serialize_cost(0.05),
    );
    let id = mgr
        .open_session(
            Arc::clone(&program),
            "show",
            Arc::new(ExecTimeModel::new()),
            shift_builtins(),
            shift_builtins(),
        )
        .unwrap();
    let handler = Arc::clone(mgr.handler(id).unwrap());
    let func = program.function("show").unwrap();
    // Whether the cut a message split at ships the variable `name`.
    let ships = |out: &SessionOutcome, name: &str| {
        let var = func.var_by_name(name).unwrap();
        handler.analysis().pses()[out.split_pse].inter.contains(&var)
    };
    // The entry-side cut: `decode` runs on the receiver, so only the
    // compressed frame crosses.
    let entry_side = |out: &SessionOutcome| !ships(out, "big");
    // The balanced cut: one grind stage on each side.
    let balanced = |out: &SessionOutcome| ships(out, "d1");

    let frame = |program: &Arc<Program>, bytes: usize, rounds: i64| {
        let program = Arc::clone(program);
        move |ctx: &mut method_partitioning::ir::interp::ExecCtx| {
            let classes = &program.classes;
            let class = classes.id("Frame").unwrap();
            let decl = classes.decl(class);
            let f = ctx.heap.alloc_object(classes, class);
            let b = ctx.heap.alloc_array(ElemType::Byte, bytes);
            ctx.heap.set_field(f, decl.field("n").unwrap(), Value::Int(bytes as i64))?;
            ctx.heap.set_field(f, decl.field("rounds").unwrap(), Value::Int(rounds))?;
            ctx.heap.set_field(f, decl.field("buff").unwrap(), Value::Ref(b))?;
            Ok(vec![Value::Ref(f)])
        }
    };
    let run_phase = |bytes: usize, rounds: i64| -> Vec<SessionOutcome> {
        let outs = (0..6 * WINDOW)
            .map(|_| mgr.deliver(id, frame(&program, bytes, rounds)).unwrap())
            .collect();
        assert_eq!(mgr.cache().misses(), 1, "one analysis, never a second");
        outs
    };
    // Messages of a phase after the first trigger window: by then the
    // feedback gathered inside the phase has re-selected the plan.
    let settled = |outs: &[SessionOutcome], want: &dyn Fn(&SessionOutcome) -> bool| {
        outs[WINDOW..].iter().all(want)
    };

    // Comms-bound: shipping the inflated intermediate would cost 4x.
    let comms = run_phase(12_000, 0);
    assert!(comms.iter().all(entry_side), "comms-bound phase keeps decode on the receiver");

    // Compute-bound: the balanced cut within one trigger window.
    let compute = run_phase(64, 100);
    assert!(settled(&compute, &balanced), "balanced cut within {WINDOW} messages");

    // Flip back: the entry-side cut again, within one window.
    let back = run_phase(12_000, 0);
    assert!(settled(&back, &entry_side), "flip-back returns to the entry-side cut");

    let snap = handler.obs().registry().snapshot();
    assert!(snap.counter_sum("reconfigurations_total") > 0);
    assert_eq!(handler.model().name(), "exec-time", "the deployment model never changes");
    mgr.shutdown();
}

// ---------------------------------------------------------------------------
// Transactional reconfiguration: rollback equivalence (DESIGN.md §16).
// ---------------------------------------------------------------------------

/// A linear handler with several splittable edges: enough distinct valid
/// singleton plans that the guard tests can always find an alternate cut
/// to commit and then roll back.
const GUARD_SRC: &str = r#"
    fn guarded(x) {
        a = x * 3
        b = a + 7
        native emit(b)
        return b
    }
"#;

/// Baked-in seeds plus `MPART_CHAOS_SEED` (the CI chaos-matrix variable),
/// mirroring the chaos suite's matrix helper.
fn guard_seeds() -> Vec<u64> {
    let mut seeds = vec![3, 11, 29];
    if let Some(seed) =
        std::env::var("MPART_CHAOS_SEED").ok().and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    seeds
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// A session whose plan switch breached the guard and rolled back
    /// must be behaviorally identical to one that never switched at all:
    /// same per-seq results, same traps at the same seqs, and the same
    /// final ack watermark — a rollback is transactional, not lossy.
    #[test]
    fn rolled_back_session_is_identical_to_a_never_switched_one(
        canary in 1u64..6,
        warmup in 2usize..6,
        traps in 1usize..4,
        tail in 1usize..6,
    ) {
        use std::time::Duration;
        use method_partitioning::core::reconfig::GuardConfig;
        use method_partitioning::core::session::{
            PrepareOutcome, SessionConfig, SessionManager,
        };
        use method_partitioning::ir::interp::BuiltinRegistry;
        use method_partitioning::ir::parse::parse_program;
        use method_partitioning::ir::Value;
        use proptest::prelude::*;

        for seed in guard_seeds() {
            let program = Arc::new(parse_program(GUARD_SRC).unwrap());
            let mut receiver = BuiltinRegistry::new();
            receiver.register_native("emit", 1, |_, _| Ok(Value::Null));
            let open = |config: SessionConfig| {
                let mut mgr = SessionManager::new(config);
                let id = mgr
                    .open_session(
                        Arc::clone(&program),
                        "guarded",
                        Arc::new(DataSizeModel::new()),
                        BuiltinRegistry::new(),
                        receiver.clone(),
                    )
                    .unwrap();
                (mgr, id)
            };
            // Explicit switches only: the trigger never fires on its own,
            // so the guarded/control sessions differ exactly by the one
            // committed (and rolled-back) plan.
            let base = SessionConfig::default()
                .with_workers(1)
                .with_trigger(TriggerPolicy::Never);
            let guard =
                GuardConfig { canary, breach_pct: 25.0, quarantine_decay: 8 };
            let (mut guarded, gid) = open(base.clone().with_guard(guard));
            let (mut control, cid) = open(base);

            // The delivery script both sessions replay verbatim: `warmup`
            // seed-derived ints, `traps` type-error envelopes (a string
            // where the handler multiplies), then `tail` more ints.
            let mut script: Vec<Value> = Vec::new();
            for i in 0..warmup {
                script.push(Value::Int(((seed as i64) * 31 + i as i64) % 97));
            }
            for _ in 0..traps {
                script.push(Value::str("not a number"));
            }
            for i in 0..tail {
                script.push(Value::Int(((seed as i64) * 17 + i as i64) % 89));
            }

            let deliver_at = |mgr: &SessionManager, id: usize, at: usize| {
                let event = script[at].clone();
                mgr.deliver(id, move |_| Ok(vec![event]))
                    .map(|o| (o.seq, o.ret))
                    .map_err(|e| e.to_string())
            };

            // Warmup feeds the guard its pre-switch baseline on both.
            for at in 0..warmup {
                prop_assert_eq!(
                    deliver_at(&guarded, gid, at),
                    deliver_at(&control, cid, at),
                    "seed {}: warmup envelope {} diverged", seed, at
                );
            }

            // Two-phase switch to an alternate valid cut — guarded only.
            let handler = Arc::clone(guarded.handler(gid).unwrap());
            let before = handler.plan().active();
            let n = handler.analysis().pses().len();
            let alt = (0..n)
                .map(|p| vec![p])
                .find(|c| {
                    handler.validate_candidate(c).is_ok() && !handler.plan().active_eq(c)
                })
                .expect("GUARD_SRC has an alternate valid cut");
            prop_assert!(matches!(
                guarded.prepare_plan(gid, &alt, Duration::from_secs(2)),
                Ok(PrepareOutcome::Ready)
            ));
            let epoch = guarded.commit_plan(gid, &alt).unwrap();
            prop_assert!(epoch > 0, "commit bumped the epoch");

            // The traps breach the guard inside the canary window (error
            // rate jumps from 0 to 1) and the tail runs on the restored
            // plan; the control just replays the same script.
            for at in warmup..script.len() {
                prop_assert_eq!(
                    deliver_at(&guarded, gid, at),
                    deliver_at(&control, cid, at),
                    "seed {}: post-commit envelope {} diverged", seed, at
                );
            }

            // The breach rolled the guarded session back to the
            // pre-switch plan and quarantined the breaching set.
            prop_assert!(
                handler.plan().active_eq(&before),
                "seed {seed}: rollback restored {before:?}, got {:?}",
                handler.plan().active()
            );
            let snapshot = handler.obs().registry().snapshot();
            prop_assert_eq!(snapshot.counter_sum("plan_rollbacks_total"), 1);
            prop_assert!(matches!(
                guarded.prepare_plan(gid, &alt, Duration::from_secs(2)),
                Ok(PrepareOutcome::Quarantined)
            ));

            // Ack watermarks are identical and contiguous: traps consumed
            // a seq but never acked, on both sides equally.
            let expected = (warmup + traps + tail) as u64;
            let guarded_mark = guarded.close_session(gid).unwrap();
            let control_mark = control.close_session(cid).unwrap();
            prop_assert_eq!(guarded_mark, control_mark);
            prop_assert_eq!(guarded_mark, expected);
            guarded.shutdown();
            control.shutdown();
        }
    }
}
