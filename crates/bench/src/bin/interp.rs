//! Interpreted vs compiled execution-engine sweep (`BENCH_interp.json`).
//!
//! Drives the full modulator → continuation → demodulator envelope over
//! three IR-resident fixtures whose heavy work lives in IR loops (not in
//! Rust builtins), so the per-envelope latency difference isolates the
//! engine dispatch cost the register-bytecode VM removes:
//!
//! * `image` — a nested 2×2 pixel-downsample loop over an int frame;
//! * `sensor` — a 3-tap FIR + energy accumulation loop over a signal;
//! * `inlining` — `grind` loops reached through nested IR `call` frames.
//!
//! Both engines run the identical late plan (split at the last edges, so
//! the loops execute on the modulator side), and the harness asserts the
//! engines agree on total work units before reporting any timing — a
//! wrong-but-fast engine fails the run. See DESIGN.md §14 for the
//! two-engine contract and EXPERIMENTS.md for the schema.

use std::sync::Arc;
use std::time::Instant;

use mpart::session::EngineChoice;
use mpart::PartitionedHandler;
use mpart_bench::table::{arg_usize, f2, Table};
use mpart_bench::Report;
use mpart_cost::{CostModel, ExecTimeModel};
use mpart_ir::compile::{CompileHints, CompileOptions, Observed};
use mpart_ir::engine::{CompiledEngine, Engine, InterpEngine};
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::parse::parse_program;
use mpart_ir::types::ElemType;
use mpart_ir::{IrError, Program, Value};

const IMAGE_SRC: &str = r#"
class Frame { side: int, buff: ref }

fn push(event) {
    ok = event instanceof Frame
    if ok == 0 goto skip
    f = (Frame) event
    side = f.side
    src = f.buff
    half = side / 2
    hh = half * half
    out = new int[hh]
    y = 0
outer:
    if y >= half goto done
    x = 0
inner:
    if x >= half goto next_row
    sy = y * 2
    sx = x * 2
    base = sy * side
    i0 = base + sx
    v0 = src[i0]
    i1 = i0 + 1
    v1 = src[i1]
    r2 = base + side
    i2 = r2 + sx
    v2 = src[i2]
    i3 = i2 + 1
    v3 = src[i3]
    s01 = v0 + v1
    s23 = v2 + v3
    s = s01 + s23
    avg = s / 4
    oi = y * half
    oi = oi + x
    out[oi] = avg
    x = x + 1
    goto inner
next_row:
    y = y + 1
    goto outer
done:
    native sink(out)
    return 1
skip:
    return 0
}
"#;

const SUM_TO_SRC: &str =
    "fn sum_to(n) {\n    i = 0\n    total = 0\nhead:\n    if i > n goto done\n    \
     total = total + i\n    i = i + 1\n    goto head\ndone:\n    return total\n}\n";

const SENSOR_SRC: &str = r#"
class Signal { n: int, samples: ref }

fn process(event) {
    ok = event instanceof Signal
    if ok == 0 goto skip
    s = (Signal) event
    n = s.n
    xs = s.samples
    energy = 0
    i = 2
head:
    if i >= n goto done
    a = xs[i]
    j1 = i - 1
    b = xs[j1]
    j2 = i - 2
    c = xs[j2]
    ab = a + b
    fir = ab + c
    fir = fir / 3
    sq = fir * fir
    energy = energy + sq
    i = i + 1
    goto head
done:
    native report(energy)
    return 1
skip:
    return 0
}
"#;

const INLINING_SRC: &str = r#"
fn grind(x, rounds) {
    acc = x
    i = 0
g:
    if i >= rounds goto gd
    acc = acc * 3
    acc = acc + 7
    i = i + 1
    goto g
gd:
    return acc
}

fn work(event, rounds) {
    a = call grind(event, rounds)
    b = call grind(a, rounds)
    c = call grind(b, rounds)
    native submit(c)
    return c
}
"#;

/// Builds the `seq`-th event of a fixture inside the sender's context.
type EventBuilder = Box<dyn Fn(&Program, &mut ExecCtx, u64) -> Result<Vec<Value>, IrError>>;

/// One benchmark scenario: a handler program plus an event builder.
struct Fixture {
    name: &'static str,
    program: Arc<Program>,
    func: &'static str,
    builtins: BuiltinRegistry,
    event: EventBuilder,
}

fn sink_builtins(names: &[&'static str]) -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    for name in names {
        b.register_native(*name, 1, |_, _| Ok(Value::Null));
    }
    b
}

fn fixtures(smoke: bool) -> Vec<Fixture> {
    let side: i64 = if smoke { 16 } else { 64 };
    let samples: i64 = if smoke { 64 } else { 2048 };
    let rounds: i64 = if smoke { 16 } else { 256 };

    vec![
        Fixture {
            name: "image",
            program: Arc::new(parse_program(IMAGE_SRC).expect("image fixture parses")),
            func: "push",
            builtins: sink_builtins(&["sink"]),
            event: Box::new(move |program, ctx, seq| {
                let classes = &program.classes;
                let class = classes.id("Frame").expect("Frame");
                let decl = classes.decl(class);
                let f = ctx.heap.alloc_object(classes, class);
                let buff = ctx.heap.alloc_array(ElemType::Int, (side * side) as usize);
                for i in 0..side * side {
                    ctx.heap.array_set(buff, i, Value::Int((i * 31 + seq as i64) & 0xFF))?;
                }
                ctx.heap.set_field(f, decl.field("side").expect("side"), Value::Int(side))?;
                ctx.heap.set_field(f, decl.field("buff").expect("buff"), Value::Ref(buff))?;
                Ok(vec![Value::Ref(f)])
            }),
        },
        Fixture {
            name: "sensor",
            program: Arc::new(parse_program(SENSOR_SRC).expect("sensor fixture parses")),
            func: "process",
            builtins: sink_builtins(&["report"]),
            event: Box::new(move |program, ctx, seq| {
                let classes = &program.classes;
                let class = classes.id("Signal").expect("Signal");
                let decl = classes.decl(class);
                let s = ctx.heap.alloc_object(classes, class);
                let xs = ctx.heap.alloc_array(ElemType::Int, samples as usize);
                for i in 0..samples {
                    ctx.heap.array_set(xs, i, Value::Int((i * 7 + seq as i64 * 13) % 100))?;
                }
                ctx.heap.set_field(s, decl.field("n").expect("n"), Value::Int(samples))?;
                ctx.heap.set_field(s, decl.field("samples").expect("samples"), Value::Ref(xs))?;
                Ok(vec![Value::Ref(s)])
            }),
        },
        Fixture {
            name: "inlining",
            program: Arc::new(parse_program(INLINING_SRC).expect("inlining fixture parses")),
            func: "work",
            builtins: sink_builtins(&["submit"]),
            event: Box::new(move |_, _, seq| {
                Ok(vec![Value::Int(seq as i64 % 9 + 1), Value::Int(rounds)])
            }),
        },
    ]
}

/// Per-engine measurement: average envelope latency, the engine's own
/// time per work unit, and the work/step totals used for the cross-engine
/// agreement check.
struct Measured {
    us_per_envelope: f64,
    ns_per_work: f64,
    total_work: u64,
    total_steps: u64,
}

fn run_fixture(fixture: &Fixture, iters: usize, choice: EngineChoice) -> Measured {
    let model: Arc<dyn CostModel> = Arc::new(ExecTimeModel::new());
    let handler = PartitionedHandler::analyze(Arc::clone(&fixture.program), fixture.func, model)
        .expect("fixture analyzes");
    // Process-on-sender plan: split at the last edge of every path so the
    // heavy loops execute through the engine under test.
    let late: Vec<usize> = handler
        .analysis()
        .pses()
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.edge.is_entry())
        .map(|(i, _)| i)
        .collect();
    handler.install_plan(&late);
    handler.plan().validate_cut(handler.analysis()).expect("late plan is a cut");
    let installed = handler.select_engine(choice);
    assert_eq!(installed, choice.as_str(), "explicit choices install verbatim");
    let modulator = handler.modulator();
    let demodulator = handler.demodulator();

    let mut total_work = 0u64;
    let mut total_steps = 0u64;
    let start = Instant::now();
    for seq in 0..iters {
        let mut sender = ExecCtx::without_digests(&fixture.program, fixture.builtins.clone());
        let args = (fixture.event)(&fixture.program, &mut sender, seq as u64).expect("event");
        let run = modulator.handle(&mut sender, args).expect("modulate");
        let mut receiver = ExecCtx::without_digests(&fixture.program, fixture.builtins.clone());
        let out = demodulator.handle(&mut receiver, &run.message).expect("demodulate");
        std::hint::black_box(out.ret);
        total_work += sender.work + receiver.work;
        total_steps += sender.steps + receiver.steps;
    }
    let us_per_envelope = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

    // The engine alone: the handler run to completion with no observer,
    // timed around `Engine::run` only (event construction excluded).
    let engine = handler.engine();
    let mut engine_ns = 0u128;
    let mut engine_work = 0u64;
    for seq in 0..iters {
        let mut ctx = ExecCtx::without_digests(&fixture.program, fixture.builtins.clone());
        let args = (fixture.event)(&fixture.program, &mut ctx, seq as u64).expect("event");
        let t = Instant::now();
        let ret = engine.run(&mut ctx, fixture.func, args).expect("engine run");
        engine_ns += t.elapsed().as_nanos();
        std::hint::black_box(ret);
        engine_work += ctx.work;
    }
    let ns_per_work = engine_ns as f64 / engine_work.max(1) as f64;
    Measured { us_per_envelope, ns_per_work, total_work, total_steps }
}

/// `sum_to(n)` on the bytecode engine, compiled as the partitioned runtime
/// compiles helper bodies (no watched edges): nanoseconds per step of the
/// bare dispatch loop, with the step and result checked against the
/// interpreter.
fn sum_to_ns_per_step(n: i64, iters: usize) -> (f64, u64) {
    let program = Arc::new(parse_program(SUM_TO_SRC).expect("sum_to parses"));
    let hints = CompileHints {
        default: CompileOptions {
            observed: Observed::Edges(Default::default()),
            fuse: true,
            fuse_at: None,
        },
        ..CompileHints::default()
    };
    let compiled = CompiledEngine::compile(Arc::clone(&program), &hints);
    let mut reference = ExecCtx::new(&program);
    let expected =
        InterpEngine::new(Arc::clone(&program)).run(&mut reference, "sum_to", vec![Value::Int(n)]);
    let mut ns = 0u128;
    let mut steps = 0u64;
    for _ in 0..iters {
        let mut ctx = ExecCtx::new(&program);
        let t = Instant::now();
        let ret = compiled.run(&mut ctx, "sum_to", vec![std::hint::black_box(Value::Int(n))]);
        ns += t.elapsed().as_nanos();
        assert_eq!(ret, expected, "sum_to: engines disagree on the result");
        assert_eq!(ctx.steps, reference.steps, "sum_to: engines disagree on steps");
        steps += ctx.steps;
    }
    (ns as f64 / steps as f64, reference.steps)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = arg_usize("iters", if smoke { 20 } else { 400 });

    let mut table = Table::new(
        "Execution engines: per-envelope latency, interpreted vs compiled",
        &[
            "Fixture",
            "interp (us/envelope)",
            "compiled (us/envelope)",
            "speedup",
            "work/envelope",
            "ns/work unit (compiled)",
        ],
    );

    let mut best_speedup = 0.0f64;
    for fixture in fixtures(smoke) {
        let interp = run_fixture(&fixture, iters, EngineChoice::Interp);
        let compiled = run_fixture(&fixture, iters, EngineChoice::Compiled);
        // The two-engine contract: identical work and step accounting, or
        // the timing numbers are meaningless.
        assert_eq!(
            interp.total_work, compiled.total_work,
            "{}: engines disagree on work units",
            fixture.name
        );
        assert_eq!(
            interp.total_steps, compiled.total_steps,
            "{}: engines disagree on step counts",
            fixture.name
        );
        let speedup = interp.us_per_envelope / compiled.us_per_envelope.max(1e-9);
        best_speedup = best_speedup.max(speedup);
        table.row(vec![
            fixture.name.into(),
            f2(interp.us_per_envelope),
            f2(compiled.us_per_envelope),
            f2(speedup),
            (interp.total_work / iters as u64).to_string(),
            f2(compiled.ns_per_work),
        ]);
    }
    // The bare dispatch loop: every work unit of `sum_to` is one step.
    let n = if smoke { 1_000 } else { 100_000 };
    let (ns_per_step, steps) = sum_to_ns_per_step(n, if smoke { 5 } else { 50 });
    table.row(vec![
        "sum_to (ns/step)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        steps.to_string(),
        f2(ns_per_step),
    ]);
    table.note(
        "late plan (loops on the modulator side); work/step equality asserted \
         across engines before timing is reported; ns/work unit times Engine::run \
         alone; the sum_to row is the bare dispatch loop in ns per step",
    );
    table.print();

    if !smoke {
        assert!(
            best_speedup >= 2.0,
            "expected >= 2.0x on at least one fixture, best was {best_speedup:.2}x"
        );
    }

    let mut report = Report::new("interp");
    report.param_u64("iters", iters as u64).param_u64("smoke", u64::from(smoke)).add_table(&table);
    report.finish();
}
