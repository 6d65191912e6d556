//! Differential tests for the two-engine execution contract: for any
//! handler, the compiled register-bytecode engine must be
//! **observationally indistinguishable** from the reference tree-walking
//! interpreter — same results, same traps (error value AND trap point in
//! steps/work), and same continuation cut-points through the full
//! modulator → continuation → demodulator pipeline.
//!
//! The last section holds the receiver's memory contract to the same
//! standard: a context whose heap is released after every envelope
//! ([`Subscriber::apply`]) must be indistinguishable, envelope by
//! envelope, from one whose heap never frees — with hand-written handlers
//! for each way an object can outlive the envelope that allocated it.
//!
//! [`Subscriber::apply`]: method_partitioning::core::subscriber::Subscriber::apply
//!
//! Exercised three ways: a proptest sweep over random handler programs at
//! the engine level (Observed::All, so the bytecode engine fires the
//! observer on every edge exactly like the interpreter), a proptest sweep
//! at the partitioned level over every PSE of each generated handler, and
//! a deterministic seed-matrix replay wired into the CI chaos matrix via
//! `MPART_CHAOS_SEED`.

use std::collections::HashSet;
use std::sync::Arc;

use method_partitioning::core::partitioned::PartitionedHandler;
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::core::reconfig::{plan_through, ReconfigUnit};
use method_partitioning::core::session::{SessionConfig, SessionManager};
use method_partitioning::core::subscriber::{Subscriber, Timing};
use method_partitioning::cost::{CostModel, DataSizeModel};
use method_partitioning::ir::compile::{CompileHints, CompileOptions, Observed};
use method_partitioning::ir::engine::{CompiledEngine, Engine, EngineChoice, InterpEngine};
use method_partitioning::ir::interp::{
    BuiltinRegistry, EdgeAction, EdgeObserver, ExecCtx, Outcome,
};
use method_partitioning::ir::marshal::deep_digest_many;
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::{IrError, Program, Value};
use method_partitioning::jecho::{
    ProxyConfig, ProxySession, SimConfig, SimSession, TcpReceiver, TcpSender,
};
use method_partitioning::simnet::{Host, Link, SimTime};
use proptest::prelude::*;

/// The seed matrix: baked-in seeds plus `MPART_CHAOS_SEED` from the
/// environment, mirroring tests/chaos.rs so the CI chaos-matrix job
/// replays the differential property under its eight fixed seeds.
fn seed_matrix(base: &[u64]) -> Vec<u64> {
    let mut seeds = base.to_vec();
    if let Some(seed) =
        std::env::var("MPART_CHAOS_SEED").ok().and_then(|s| s.trim().parse::<u64>().ok())
    {
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    seeds
}

/// Renders a small random handler: arithmetic/array chain, an optional
/// guard branch, an optional bounded loop, and an optional division whose
/// divisor hits zero for one specific input (the trap case).
fn random_handler(ops: &[u8], with_branch: bool, with_loop: bool, div_at: Option<i64>) -> String {
    let mut body = String::new();
    body.push_str("    acc = x\n    arr = new int[4]\n    arr[0] = x\n");
    if with_branch {
        body.push_str("    if x < 0 goto neg\n");
    }
    if let Some(k) = div_at {
        // Traps with DivideByZero exactly when x == k; both engines must
        // raise it at the same step count.
        body.push_str(&format!("    d = x - {k}\n    acc = acc / d\n"));
    }
    if with_loop {
        body.push_str("    i = 0\nhead:\n    if i >= 5 goto after\n");
        body.push_str("    acc = acc + i\n    i = i + 1\n    goto head\nafter:\n");
    }
    for (i, op) in ops.iter().enumerate() {
        match op % 6 {
            0 => body.push_str(&format!("    acc = acc + {}\n", i + 1)),
            1 => body.push_str(&format!("    acc = acc * {}\n", (i % 3) + 2)),
            2 => body.push_str(&format!("    arr[{}] = acc\n", i % 4)),
            3 => body.push_str(&format!("    t{i} = arr[{}]\n    acc = acc + t{i}\n", i % 4)),
            4 => body.push_str(&format!("    acc = acc - {}\n", i * 2)),
            _ => body.push_str(&format!("    u{i} = acc < {}\n    acc = acc + u{i}\n", i)),
        }
    }
    body.push_str("    native emit(acc, arr)\n    return acc\n");
    if with_branch {
        body.push_str("neg:\n    native emit_err(x)\n    return 0\n");
    }
    format!("fn gen(x) {{\n{body}}}\n")
}

fn gen_builtins() -> BuiltinRegistry {
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("emit", 1, |_, _| Ok(Value::Null));
    builtins.register_native("emit_err", 1, |_, _| Ok(Value::Null));
    builtins
}

/// Records every observed edge with the work counter at observation time.
#[derive(Default)]
struct EdgeLog(Vec<(usize, usize, u64)>);

impl EdgeObserver for EdgeLog {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        _: &[Value],
        _: &mpart_ir::heap::Heap,
        work: u64,
    ) -> EdgeAction {
        self.0.push((from, to, work));
        EdgeAction::Continue
    }
}

/// Everything one engine run exposes: result-or-trap, step and work
/// counters at exit, globals, native trace, and the full edge log.
type EngineRun =
    (Result<Option<Value>, IrError>, u64, u64, Vec<Value>, Vec<String>, Vec<(usize, usize, u64)>);

fn run_engine(engine: &dyn Engine, program: &Arc<Program>, input: i64) -> EngineRun {
    let mut ctx = ExecCtx::with_builtins(program, gen_builtins());
    let func = program.function("gen").expect("generated handler exists");
    let mut log = EdgeLog::default();
    let res =
        engine.run_observed(&mut ctx, func, vec![Value::Int(input)], &mut log).map(|o| match o {
            Outcome::Finished(v) => v,
            Outcome::Suspended(_) => unreachable!("the logging observer never suspends"),
        });
    let trace = ctx.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect();
    (res, ctx.steps, ctx.work, ctx.globals, trace, log.0)
}

/// Asserts the two engines are indistinguishable for one handler+input.
fn assert_engines_agree(src: &str, input: i64) {
    let program = Arc::new(parse_program(src).expect("generated program parses"));
    let interp = InterpEngine::new(Arc::clone(&program));
    let compiled = CompiledEngine::compile(Arc::clone(&program), &CompileHints::default());
    let a = run_engine(&interp, &program, input);
    let b = run_engine(&compiled, &program, input);
    assert_eq!(a.0, b.0, "result/trap for input {input} of:\n{src}");
    assert_eq!(a.1, b.1, "steps at exit for input {input} of:\n{src}");
    assert_eq!(a.2, b.2, "work at exit for input {input} of:\n{src}");
    assert_eq!(a.3, b.3, "globals for input {input} of:\n{src}");
    assert_eq!(a.4, b.4, "native trace for input {input} of:\n{src}");
    assert_eq!(a.5, b.5, "edge log for input {input} of:\n{src}");
}

/// Observable outcome of a partitioned run, including the cut-point: the
/// PSE the message split at, its wire size, and the sender-side work.
type Partitioned = (Option<Value>, Vec<String>, Vec<Value>, usize, usize, u64);

/// Runs modulator → continuation → demodulator under `choice`, splitting
/// at `main_pse` (under [`plan_through`]'s plan, as in
/// tests/equivalence.rs).
fn run_partitioned(
    program: &Arc<Program>,
    main_pse: usize,
    choice: EngineChoice,
    input: i64,
) -> Result<Partitioned, IrError> {
    let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
    let handler = PartitionedHandler::analyze(Arc::clone(program), "gen", model)?;
    handler.select_engine(choice);
    handler.plan().install(&plan_through(handler.analysis(), main_pse)?);
    handler.plan().validate_cut(handler.analysis())?;

    let mut sender = ExecCtx::with_builtins(program, gen_builtins());
    let run = handler.modulator().handle(&mut sender, vec![Value::Int(input)])?;
    let mut receiver = ExecCtx::with_builtins(program, gen_builtins());
    let out = handler.demodulator().handle(&mut receiver, &run.message)?;
    let trace = receiver.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect();
    Ok((out.ret, trace, receiver.globals, run.message.pse, run.message.wire_size(), run.mod_work))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Engine-level sweep: under Observed::All the bytecode VM must match
    /// the interpreter edge-for-edge, step-for-step — including the
    /// DivideByZero trap case (`input == div_at`).
    #[test]
    fn random_handlers_run_identically_on_both_engines(
        ops in proptest::collection::vec(0u8..=5, 1..10),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
        div_on in any::<bool>(),
        div_k in -3i64..4,
        input in -50i64..50,
    ) {
        let div_at = if div_on { Some(div_k) } else { None };
        let src = random_handler(&ops, with_branch, with_loop, div_at);
        assert_engines_agree(&src, input);
        if let Some(k) = div_at {
            // Force the trap case regardless of what `input` drew.
            assert_engines_agree(&src, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioned-level sweep: for every PSE of each generated handler,
    /// both engines pick the same cut-point, pack the same continuation,
    /// and demodulate to the same observable outcome.
    #[test]
    fn every_pse_cuts_identically_across_engines(
        ops in proptest::collection::vec(0u8..=5, 1..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
        input in -50i64..50,
    ) {
        let src = random_handler(&ops, with_branch, with_loop, None);
        let program = Arc::new(parse_program(&src).expect("parses"));
        let probe = PartitionedHandler::analyze(
            Arc::clone(&program),
            "gen",
            Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
        )
        .unwrap();
        for pse in 0..probe.analysis().pses().len() {
            let a = run_partitioned(&program, pse, EngineChoice::Interp, input)
                .unwrap_or_else(|e| panic!("interp pse {pse}: {e}\n{src}"));
            let b = run_partitioned(&program, pse, EngineChoice::Compiled, input)
                .unwrap_or_else(|e| panic!("compiled pse {pse}: {e}\n{src}"));
            prop_assert_eq!(&a, &b, "pse {} of:\n{}", pse, src);
        }
    }
}

/// Deterministic replay keyed on the chaos seed matrix: each seed derives
/// a handler shape and an input set (always including the division trap),
/// and both engines must agree at the engine level and at every PSE.
#[test]
fn seeded_differential_matrix_agrees_across_engines() {
    for seed in seed_matrix(&[2, 5, 13, 23, 31, 47, 73, 101]) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed | 1);
        let mut next = move || {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            s >> 33
        };
        let ops: Vec<u8> = (0..(3 + (next() % 7) as usize)).map(|_| (next() % 6) as u8).collect();
        let with_branch = next() % 2 == 0;
        let with_loop = next() % 2 == 0;
        let div_at = (next() % 5) as i64 - 2;
        let src = random_handler(&ops, with_branch, with_loop, Some(div_at));
        for input in [div_at, div_at + 1, -9, 0, 17] {
            assert_engines_agree(&src, input);
        }

        let no_trap = random_handler(&ops, with_branch, with_loop, None);
        let program = Arc::new(parse_program(&no_trap).unwrap());
        let probe = PartitionedHandler::analyze(
            Arc::clone(&program),
            "gen",
            Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
        )
        .unwrap();
        for pse in 0..probe.analysis().pses().len() {
            let a = run_partitioned(&program, pse, EngineChoice::Interp, 17)
                .unwrap_or_else(|e| panic!("seed {seed} interp pse {pse}: {e}"));
            let b = run_partitioned(&program, pse, EngineChoice::Compiled, 17)
                .unwrap_or_else(|e| panic!("seed {seed} compiled pse {pse}: {e}"));
            assert_eq!(a, b, "seed {seed}, pse {pse} of:\n{no_trap}");
        }
    }
}

/// A handler runs on the bytecode engine from construction, with no
/// engine selection, and a full envelope round-trips on it.
#[test]
fn a_constructed_handler_runs_compiled_and_round_trips() {
    let src = random_handler(&[0, 1, 3], true, true, None);
    let program = Arc::new(parse_program(&src).unwrap());
    let handler = PartitionedHandler::analyze(
        Arc::clone(&program),
        "gen",
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
    )
    .unwrap();
    assert_eq!(handler.engine().name(), "compiled");
    let mut sender = ExecCtx::with_builtins(&program, gen_builtins());
    let run = handler.modulator().handle(&mut sender, vec![Value::Int(6)]).unwrap();
    let mut receiver = ExecCtx::with_builtins(&program, gen_builtins());
    let out = handler.demodulator().handle(&mut receiver, &run.message).unwrap();
    let direct = {
        let mut ctx = ExecCtx::with_builtins(&program, gen_builtins());
        InterpEngine::new(Arc::clone(&program)).run(&mut ctx, "gen", vec![Value::Int(6)]).unwrap()
    };
    assert_eq!(out.ret, direct);
}

/// Every transport's handler runs compiled from construction: the
/// simulator, the TCP receiver, the proxy and the session manager build
/// theirs without any engine selection.
#[test]
fn every_transport_builds_its_handler_compiled() {
    let program = Arc::new(parse_program("fn h(x) {\n    y = x + 1\n    return y\n}\n").unwrap());
    let model = || Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>;
    let host = |name: &str| Host::new(name, 1_000_000.0);
    let link = |name: &str| Link::new(name, SimTime::from_millis(1), 1_000_000.0);
    let registry = BuiltinRegistry::new;

    let sim = SimSession::adaptive(
        Arc::clone(&program),
        "h",
        model(),
        registry(),
        registry(),
        SimConfig::new(host("a"), link("lan"), host("b"), TriggerPolicy::Never),
    )
    .unwrap();
    let proxy = ProxySession::new(
        Arc::clone(&program),
        "h",
        model(),
        registry(),
        registry(),
        ProxyConfig {
            source: host("mote"),
            uplink: link("pan"),
            proxy: host("broker"),
            downlink: link("wan"),
            receiver: host("client"),
            trigger: TriggerPolicy::Never,
            serialize_work_per_byte: 0.0,
        },
    )
    .unwrap();
    let mut manager = SessionManager::new(SessionConfig::default().with_workers(1));
    let id =
        manager.open_session(Arc::clone(&program), "h", model(), registry(), registry()).unwrap();
    let tcp =
        TcpReceiver::bind(Arc::clone(&program), "h", model(), registry(), TriggerPolicy::Never)
            .unwrap();
    for (name, handler) in [
        ("SimSession", sim.handler()),
        ("ProxySession", proxy.handler()),
        ("SessionManager", manager.handler(id).unwrap()),
        ("TcpReceiver", tcp.handler()),
    ] {
        assert_eq!(handler.engine().name(), "compiled", "{name}");
    }
    manager.shutdown();
    let sender =
        TcpSender::connect(Arc::clone(&program), Arc::clone(tcp.handler()), registry(), tcp.port())
            .unwrap();
    sender.shutdown().unwrap();
    assert_eq!(tcp.join().unwrap(), 0);
}

// ---- typed paths: kinds, wrapping, traps, step limits, cuts -------------

/// One draw of the typed-path generator ([`typed_handler`]).
#[derive(Debug, Clone)]
struct TypedShape {
    /// Kind joined with an `Int` at `alt`: float, bool, str, ref, int.
    other: u8,
    /// Element type of the array reached through `h.data`: byte, int,
    /// float, ref.
    elem: u8,
    /// Its length.
    len: i64,
    /// Whether the loop indexes `i % len`, always in bounds, so the loop
    /// runs every round; otherwise it indexes `i + x`, so some inputs
    /// read and write out of bounds.
    inb: bool,
    /// Loop trip count.
    rounds: i64,
    /// Loop body ops.
    ops: Vec<u8>,
}

/// Renders a handler that walks the compiled engine's typed paths: a
/// register whose kind changes across a join, `Bool` operands in
/// arithmetic and comparisons, `i64::MAX`/`MIN` wrapping, a loop over an
/// array reached through a field (so its element type is unknown
/// statically) with out-of-bounds indices, division by zero, and a call.
fn typed_handler(shape: &TypedShape) -> String {
    let elem = ["byte", "int", "float", "ref"][usize::from(shape.elem % 4)];
    let other = ["1.5", "true", "\"s\"", "null", "7"][usize::from(shape.other % 5)];
    let mut body = format!(
        "    h = new Holder\n    a = new {elem}[{len}]\n    h.data = a\n    h.n = x\n\
         \x20   k = 1\n    if x < 0 goto alt\n    k = {other}\nalt:\n    z = k == 1\n",
        len = shape.len
    );
    if shape.other % 5 < 2 || shape.other % 5 == 4 {
        // Numeric kinds only: a generic op on the joined register.
        body.push_str("    y = k * 2\n");
    }
    body.push_str(
        "    g = h.data\n    n = h.n\n    b = x < 3\n    c = b + 1\n    if b == 0 goto skipb\n\
         \x20   c = c * x\nskipb:\n    m = 9223372036854775807\n    mc = m + c\n    m = m + 9\n\
         \x20   lo = 0\n    lo = lo - 9223372036854775807\n    lo = lo - 1\n    q = lo / -1\n\
         \x20   r = lo % -1\n    acc = m + q\n    acc = acc + r\n    i = 0\nhead:\n",
    );
    let idx = if shape.inb { format!("i % {}", shape.len) } else { "i + x".into() };
    body.push_str(&format!(
        "    if i >= {} goto after\n    idx = {idx}\n    v = g[idx]\n",
        shape.rounds
    ));
    for (j, op) in shape.ops.iter().enumerate() {
        match op % 6 {
            0 => body.push_str("    acc = acc + v\n"),
            1 => body.push_str("    g[idx] = acc\n"),
            2 => body.push_str("    acc = acc * 3\n"),
            // Zero, and a trap, in round `x` when the loop gets there.
            3 => body.push_str(&format!("    d{j} = i - x\n    acc = acc / d{j}\n")),
            4 => body.push_str("    acc = call helper(acc)\n"),
            _ => body.push_str(&format!("    t{j} = acc < n\n    acc = acc + t{j}\n")),
        }
    }
    body.push_str(
        "    i = i + 1\n    goto head\nafter:\n    native emit(acc, g)\n    return acc\n",
    );
    format!(
        "class Holder {{ data: ref, n: int }}\n\nfn helper(v) {{\n    w = v * 3\n    \
         w = w - v\n    return w\n}}\n\nfn gen(x) {{\n{body}}}\n"
    )
}

fn typed_shape() -> impl Strategy<Value = TypedShape> {
    ((0u8..5, 0u8..4), 1i64..6, any::<bool>(), 0i64..10, proptest::collection::vec(0u8..6, 1..6))
        .prop_map(|((other, elem), len, inb, rounds, ops)| TypedShape {
            other,
            elem,
            len,
            inb,
            rounds,
            ops,
        })
}

/// The handler's compile hints as the partitioned runtime builds them: its
/// watched edges for `gen`, nothing watched in the helper.
fn runtime_hints(program: &Arc<Program>) -> (CompileHints, HashSet<(usize, usize)>) {
    let handler = PartitionedHandler::analyze(
        Arc::clone(program),
        "gen",
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
    )
    .unwrap();
    let watched = handler.analysis().exec_hints().observed;
    let unobserved =
        CompileOptions { observed: Observed::Edges(HashSet::new()), fuse: true, fuse_at: None };
    let mut hints = CompileHints { default: unobserved.clone(), ..CompileHints::default() };
    hints.per_fn.insert(
        "gen".into(),
        CompileOptions { observed: Observed::Edges(watched.clone()), ..unobserved },
    );
    (hints, watched)
}

/// Result or trap, steps and work of one run under `step_limit`.
type Limited = (Result<Option<Value>, IrError>, u64, u64);

fn run_limited(engine: &dyn Engine, program: &Arc<Program>, input: i64, limit: u64) -> Limited {
    let mut ctx = ExecCtx::with_builtins(program, gen_builtins());
    ctx.step_limit = limit;
    let res = engine.run(&mut ctx, "gen", vec![Value::Int(input)]);
    (res, ctx.steps, ctx.work)
}

/// Records the full environment and the work at every watched edge.
struct EnvLog<'a> {
    watched: &'a HashSet<(usize, usize)>,
    seen: Vec<(usize, usize, Vec<Value>, u64)>,
}

impl EdgeObserver for EnvLog<'_> {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        env: &[Value],
        _: &mpart_ir::heap::Heap,
        work: u64,
    ) -> EdgeAction {
        if self.watched.contains(&(from, to)) {
            self.seen.push((from, to, env.to_vec(), work));
        }
        EdgeAction::Continue
    }
}

/// Suspends at one edge.
struct SuspendAt(usize, usize);

impl EdgeObserver for SuspendAt {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        _: &[Value],
        _: &mpart_ir::heap::Heap,
        _: u64,
    ) -> EdgeAction {
        if (from, to) == (self.0, self.1) {
            EdgeAction::Suspend
        } else {
            EdgeAction::Continue
        }
    }
}

/// What a run suspended at a cut, then resumed, exposes: the suspension
/// (edge, full environment, steps, work) and the resumed result or trap
/// with its steps and work.
type CutRun =
    (Option<(usize, usize, Vec<Value>, u64, u64)>, Result<Option<Value>, IrError>, u64, u64);

/// Runs `first` under an observer that suspends at `(from, to)`, keeps
/// only the registers in `live` (as a continuation would), and resumes on
/// `second` in a fresh context.
fn run_cut(
    first: &dyn Engine,
    second: &dyn Engine,
    program: &Arc<Program>,
    (from, to): (usize, usize),
    live: &[usize],
    input: i64,
) -> CutRun {
    let func = program.function("gen").unwrap();
    let mut ctx = ExecCtx::with_builtins(program, gen_builtins());
    let out = first.run_observed(&mut ctx, func, vec![Value::Int(input)], &mut SuspendAt(from, to));
    let sp = match out {
        Ok(Outcome::Suspended(sp)) => sp,
        Ok(Outcome::Finished(v)) => return (None, Ok(v), ctx.steps, ctx.work),
        Err(e) => return (None, Err(e), ctx.steps, ctx.work),
    };
    let suspended = Some((sp.from, sp.to, sp.env.clone(), ctx.steps, ctx.work));
    let env: Vec<Value> = sp
        .env
        .iter()
        .enumerate()
        .map(|(r, v)| if live.contains(&r) { v.clone() } else { Value::Null })
        .collect();
    // The receiver's context has its own heap: carry the references over
    // by sharing the sender's, which is what a same-process cut sees.
    let mut rx = ctx.clone();
    rx.steps = 0;
    rx.work = 0;
    let res = second
        .resume_observed(
            &mut rx,
            func,
            sp.to,
            env,
            &mut method_partitioning::ir::interp::NoObserver,
        )
        .map(|o| o.finished().expect("no suspension without a suspending observer"));
    (suspended, res, rx.steps, rx.work)
}

/// Asserts interp ≡ compiled for one typed handler and input: result,
/// trap, steps and work at every step limit up to one past the run's
/// length, the environment at every watched edge, and every PSE cut
/// resumed on either engine.
fn assert_typed_agree(shape: &TypedShape, input: i64) {
    let src = typed_handler(shape);
    let program = Arc::new(parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}")));
    let (hints, watched) = runtime_hints(&program);
    let interp = InterpEngine::new(Arc::clone(&program));
    let compiled = CompiledEngine::compile(Arc::clone(&program), &hints);

    let full = run_limited(&interp, &program, input, u64::MAX);
    for limit in 0..=full.1 + 1 {
        let a = run_limited(&interp, &program, input, limit);
        let b = run_limited(&compiled, &program, input, limit);
        assert_eq!(a, b, "step limit {limit}, input {input} of:\n{src}");
    }

    let func = program.function("gen").unwrap();
    let observe = |engine: &dyn Engine| {
        let mut ctx = ExecCtx::with_builtins(&program, gen_builtins());
        let mut log = EnvLog { watched: &watched, seen: Vec::new() };
        let res = engine
            .run_observed(&mut ctx, func, vec![Value::Int(input)], &mut log)
            .map(|o| o.finished().expect("never suspends"));
        (res, ctx.steps, ctx.work, log.seen)
    };
    // A fresh compile, so speculation is live again: a load that misses
    // deoptimizes mid-frame under the observer, or before a cut.
    let fresh = || CompiledEngine::compile(Arc::clone(&program), &hints);
    assert_eq!(observe(&interp), observe(&fresh()), "watched edges, input {input} of:\n{src}");

    let analysis = PartitionedHandler::analyze(
        Arc::clone(&program),
        "gen",
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
    )
    .unwrap();
    for pse in analysis.analysis().pses().iter().filter(|p| !p.edge.is_entry()) {
        let edge = (pse.edge.from, pse.edge.to);
        let live: Vec<usize> = pse.inter.iter().map(|v| v.index()).collect();
        let reference = run_cut(&interp, &interp, &program, edge, &live, input);
        let (both, resumer, suspender) = (fresh(), fresh(), fresh());
        let pairs: [(&dyn Engine, &dyn Engine); 3] =
            [(&both, &both), (&interp, &resumer), (&suspender, &interp)];
        for (first, second) in pairs {
            let got = run_cut(first, second, &program, edge, &live, input);
            assert_eq!(reference, got, "cut {edge:?}, input {input} of:\n{src}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The typed paths agree with the interpreter at every step limit, at
    /// every watched edge and at every cut.
    #[test]
    fn typed_paths_agree_at_every_step_limit_and_cut(
        shape in typed_shape(),
        input in -3i64..6,
    ) {
        assert_typed_agree(&shape, input);
    }
}

/// Every element type, every joined kind, both indexing modes and both
/// signs of the input, on one fixed loop body that loads, stores, divides
/// (by zero in round `x`, when the loop gets there) and calls.
#[test]
fn typed_path_matrix_agrees_across_engines() {
    for elem in 0..4 {
        for other in 0..5 {
            for inb in [false, true] {
                let ops = vec![0, 1, 5, 4, 2, 3];
                let shape = TypedShape { other, elem, len: 4, inb, rounds: 6, ops };
                for input in [-2, 0, 1, 3] {
                    assert_typed_agree(&shape, input);
                }
            }
        }
    }
}

/// Speculative integer loads stay on the bytecode engine for byte and
/// int arrays: no frame deoptimizes to the interpreter.
#[test]
fn integer_array_loads_never_deoptimize() {
    for elem in [0, 1] {
        let shape =
            TypedShape { other: 4, elem, len: 6, inb: false, rounds: 5, ops: vec![0, 1, 5, 2] };
        let src = typed_handler(&shape);
        let program = Arc::new(parse_program(&src).unwrap());
        let (hints, _) = runtime_hints(&program);
        let compiled = CompiledEngine::compile(Arc::clone(&program), &hints);
        let interp = InterpEngine::new(Arc::clone(&program));
        for input in 0..2 {
            let a = run_limited(&interp, &program, input, u64::MAX);
            let b = run_limited(&compiled, &program, input, u64::MAX);
            assert_eq!(a, b, "input {input} of:\n{src}");
            assert!(a.0.is_ok(), "{a:?}");
        }
        assert_eq!(
            compiled.fallback_frames(),
            0,
            "a {} load deoptimized",
            ["byte", "int"][elem as usize]
        );
    }
}

// ---- released ≡ never-released ------------------------------------------

/// How a generated stateful handler lets an object outlive its envelope.
const PUBLISH_KINDS: u8 = 5;

/// Renders a handler with receiver-owned state: the arithmetic/array chain
/// of [`random_handler`], a running count in a global, an optional trap,
/// and one of [`PUBLISH_KINDS`] ways of publishing the envelope's array —
/// on even inputs only, so released and retained envelopes interleave.
fn stateful_handler(ops: &[u8], publish: u8, div_at: Option<i64>) -> String {
    let mut body = String::from("    acc = x\n    arr = new int[4]\n    arr[0] = x\n");
    if let Some(k) = div_at {
        body.push_str(&format!("    d = x - {k}\n    acc = acc / d\n"));
    }
    for (i, op) in ops.iter().enumerate() {
        match op % 4 {
            0 => body.push_str(&format!("    acc = acc + {}\n", i + 1)),
            1 => body.push_str(&format!("    arr[{}] = acc\n", i % 4)),
            2 => body.push_str(&format!("    t{i} = arr[{}]\n    acc = acc + t{i}\n", i % 4)),
            _ => body.push_str(&format!("    acc = acc * {}\n", (i % 3) + 2)),
        }
    }
    body.push_str("    c = global::count\n    c = c + 1\n    global::count = c\n");
    body.push_str("    odd = x % 2\n    if odd != 0 goto done\n");
    match publish % PUBLISH_KINDS {
        // Publishes nothing: every envelope is released.
        0 => {}
        // Into a global.
        1 => body.push_str("    global::last = arr\n"),
        // Into a field of an object an earlier envelope published.
        2 => body.push_str(
            "    b = global::keep\n    if b != null goto have\n    b = new Box\n    \
             global::keep = b\nhave:\n    b.slot = arr\n",
        ),
        // Reads back what an earlier envelope published, then replaces it.
        3 => body.push_str(
            "    prev = global::last\n    if prev == null goto fresh\n    p0 = prev[0]\n    \
             acc = acc + p0\nfresh:\n    global::last = arr\n",
        ),
        // Returns it.
        _ => body.push_str("    native emit(acc, arr)\n    return arr\n"),
    }
    body.push_str("done:\n    native emit(acc, arr)\n    return acc\n");
    format!(
        "class Box {{ slot: ref }}\nglobal count = 0\nglobal last = null\nglobal keep = null\n\
         fn gen(x) {{\n{body}}}\n"
    )
}

/// Analyzes `func` — pinned to the entry cut, so the whole handler runs on
/// the receiver, or left at the static min-cut — and builds the receiver
/// side a transport would, with re-selection off.
fn subscribe(
    program: &Arc<Program>,
    func: &str,
    entry_cut: bool,
) -> (Arc<PartitionedHandler>, Subscriber) {
    let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
    let handler = PartitionedHandler::analyze(Arc::clone(program), func, model).unwrap();
    if entry_cut {
        handler.plan().install(&[handler.entry_pse().expect("entry PSE")]);
    }
    let unit = ReconfigUnit::new(
        Arc::clone(handler.analysis()),
        handler.model().kind(),
        TriggerPolicy::Never,
    );
    let subscriber = Subscriber::new(Arc::clone(&handler), unit);
    (handler, subscriber)
}

/// What one envelope leaves observable on the receiver: result or trap
/// (a returned reference by the digest of what it points at), cumulative
/// work and steps, the digest of the globals, and the native trace.
type Envelope = (Result<String, IrError>, u64, u64, String, Vec<String>);

/// Streams `inputs` through one handler and one receiver context, which
/// is released after every envelope (`Subscriber::apply`) or never (the
/// demodulator called directly, on a context the test owns). Also returns
/// the receiver heap's size after each envelope.
fn stream(
    src: &str,
    inputs: &[i64],
    entry_cut: bool,
    released: bool,
) -> (Vec<Envelope>, Vec<usize>) {
    let program = Arc::new(parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}")));
    let (handler, mut subscriber) = subscribe(&program, "gen", entry_cut);
    let (modulator, demodulator) = (handler.modulator(), handler.demodulator());
    let mut receiver = ExecCtx::with_builtins(&program, gen_builtins());
    let (mut envelopes, mut cells) = (Vec::new(), Vec::new());
    for &x in inputs {
        let mut sender = ExecCtx::with_builtins(&program, gen_builtins());
        let ret = modulator.handle(&mut sender, vec![Value::Int(x)]).and_then(|run| {
            if released {
                subscriber
                    .apply(&mut receiver, &run.message, run.samples, |demod| {
                        Timing::work(run.mod_work, demod)
                    })
                    .map(|applied| applied.demod.ret)
            } else {
                demodulator.handle(&mut receiver, &run.message).map(|demod| demod.ret)
            }
        });
        let digest = |values: &[Value]| deep_digest_many(&receiver.heap, values).unwrap();
        envelopes.push((
            ret.map(|ret| digest(ret.as_slice())),
            receiver.work,
            receiver.steps,
            digest(&receiver.globals),
            receiver.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect(),
        ));
        cells.push(receiver.heap.len());
    }
    (envelopes, cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A receiver that releases each envelope's heap cells is
    /// indistinguishable from one that keeps them all: same results and
    /// traps, same work and steps, same globals and native trace after
    /// every envelope — whatever the handler publishes, at the static cut
    /// and with the whole handler on the receiver.
    #[test]
    fn released_receiver_matches_a_never_released_one(
        ops in proptest::collection::vec(0u8..=3, 1..8),
        publish in 0u8..PUBLISH_KINDS,
        div_on in any::<bool>(),
        inputs in proptest::collection::vec(-6i64..7, 4..24),
        entry_cut in any::<bool>(),
    ) {
        // The divisor hits zero for input 2 (a published envelope) or 3.
        let div_at = div_on.then_some(2 + i64::from(publish % 2));
        let src = stateful_handler(&ops, publish, div_at);
        let (kept, kept_cells) = stream(&src, &inputs, entry_cut, false);
        let (released, released_cells) = stream(&src, &inputs, entry_cut, true);
        for (i, (a, b)) in kept.iter().zip(&released).enumerate() {
            prop_assert_eq!(a, b, "envelope {} (input {}) of:\n{}", i, inputs[i], src);
        }
        for (i, (k, r)) in kept_cells.iter().zip(&released_cells).enumerate() {
            prop_assert!(r <= k, "envelope {}: released heap {} > kept heap {}", i, r, k);
            if publish == 0 {
                prop_assert_eq!(*r, 0, "envelope {} left {} cells behind:\n{}", i, r, src);
            }
        }
    }
}

const ESCAPES: &str = r#"
    class Box { slot: ref }
    global last = null
    global keep = null

    fn scratch(x) {
        arr = new int[2]
        arr[0] = x
        y = arr[0]
        native emit(y, arr)
        return y
    }

    fn to_global(x) {
        prev = global::last
        seen = -1
        if prev == null goto first
        seen = prev[0]
    first:
        arr = new int[2]
        arr[0] = x
        global::last = arr
        native emit(seen, arr)
        return seen
    }

    fn to_older_object(x) {
        b = global::keep
        if b != null goto have
        b = new Box
        global::keep = b
        native emit(x, b)
        return 0
    have:
        arr = new int[2]
        arr[0] = x
        b.slot = arr
        native emit(x, arr)
        return 1
    }

    fn to_caller(x) {
        arr = new int[2]
        arr[0] = x
        native emit(x, arr)
        return arr
    }
"#;

/// One receiver per handler function of [`ESCAPES`], every envelope
/// through `Subscriber::apply`, the whole handler on the receiver.
struct Escapee {
    program: Arc<Program>,
    handler: Arc<PartitionedHandler>,
    subscriber: Subscriber,
    receiver: ExecCtx,
}

impl Escapee {
    fn new(func: &str) -> Self {
        let program = Arc::new(parse_program(ESCAPES).unwrap());
        let (handler, subscriber) = subscribe(&program, func, true);
        Escapee {
            subscriber,
            receiver: ExecCtx::with_builtins(&program, gen_builtins()),
            handler,
            program,
        }
    }

    fn apply(&mut self, x: i64) -> Option<Value> {
        let mut sender = ExecCtx::with_builtins(&self.program, gen_builtins());
        let run = self.handler.modulator().handle(&mut sender, vec![Value::Int(x)]).unwrap();
        self.subscriber
            .apply(&mut self.receiver, &run.message, run.samples, |demod| {
                Timing::work(run.mod_work, demod)
            })
            .unwrap()
            .demod
            .ret
    }

    fn global(&self, name: &str) -> Value {
        self.receiver.globals[self.program.global(name).expect("declared").index()].clone()
    }

    fn first_elem(&self, array: &Value) -> Value {
        self.receiver.heap.array_get(array.as_ref("array").unwrap(), 0).unwrap()
    }
}

/// The control: a handler that publishes nothing leaves nothing behind.
#[test]
fn an_envelope_that_publishes_nothing_is_released() {
    let mut e = Escapee::new("scratch");
    for x in 0..50 {
        assert_eq!(e.apply(x), Some(Value::Int(x)));
        assert_eq!(e.receiver.heap.len(), 0);
    }
}

/// Escape through a global — and the next envelope reads the escaped
/// object back.
#[test]
fn an_object_stored_into_a_global_outlives_its_envelope() {
    let mut e = Escapee::new("to_global");
    assert_eq!(e.apply(41), Some(Value::Int(-1)), "nothing published yet");
    assert_eq!(e.first_elem(&e.global("last")), Value::Int(41));
    assert_eq!(e.apply(42), Some(Value::Int(41)), "the second envelope read the first's array");
    assert_eq!(e.first_elem(&e.global("last")), Value::Int(42));
}

/// Escape through a field of an object an earlier envelope allocated.
#[test]
fn an_object_stored_into_an_older_object_outlives_its_envelope() {
    let mut e = Escapee::new("to_older_object");
    assert_eq!(e.apply(1), Some(Value::Int(0)), "first envelope publishes the box");
    for x in 2..6 {
        assert_eq!(e.apply(x), Some(Value::Int(1)));
        let slot = e.program.classes.decl(e.program.classes.id("Box").unwrap()).field("slot");
        let held =
            e.receiver.heap.field(e.global("keep").as_ref("box").unwrap(), slot.unwrap()).unwrap();
        assert_eq!(e.first_elem(&held), Value::Int(x), "the box holds envelope {x}'s array");
    }
}

/// Escape through the return value.
#[test]
fn a_returned_object_outlives_its_envelope() {
    let mut e = Escapee::new("to_caller");
    let first = e.apply(7).expect("returns the array");
    let second = e.apply(8).expect("returns the array");
    assert_eq!(e.first_elem(&first), Value::Int(7), "still readable after the next envelope");
    assert_eq!(e.first_elem(&second), Value::Int(8));
}
