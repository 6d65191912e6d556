//! One-weight benchmark: a workload shifting from comms-bound to
//! compute-bound, served by two fixed cost models and one weight that
//! prices both halves.
//!
//! The handler decodes a frame (4× inflation: the *intermediate* is the
//! biggest thing in flight, like image decompression) and then grinds on
//! the decoded data in two equal stages. Phase 1 ships large frames with
//! trivial grind rounds — communication dominates, so the best plan splits
//! at the entry edge and ships the *compressed* frame. Phase 2 ships tiny
//! frames with heavy grind rounds — computation dominates, so the best
//! plan splits between the grind stages and balances work across
//! modulator and demodulator.
//!
//! No fixed model gets both answers right: [`DataSizeModel`] always
//! minimizes shipped bytes (phase 2 leaves the demodulator doing all the
//! work), [`ExecTimeModel`] always balances work (phase 1 ships the 4×
//! inflated intermediate). The third cell runs [`ExecTimeModel`] with a
//! per-byte charge ([`SessionConfig::with_serialize_cost`]): with no speed
//! estimates its weight per PSE is `β·bytes + max(w_mod, w_demod)`, the
//! same sum the scoring uses, so one weight serves both phases.
//!
//! Each delivery is scored in *work-unit equivalents*:
//! `wire_bytes × work_per_byte + max(mod_work, demod_work)` — transfer
//! cost on the link plus the busier host's compute. Every cell re-selects
//! its plan under the same `Rate(8)` trigger. The run asserts the
//! one-weight cell beats both fixed models on the combined workload.
//!
//! Knobs: `--messages <M>` per phase, `--smoke` (short phases for CI),
//! `--json <path>` for the machine-readable `BENCH_modelswitch.json`.

use std::sync::Arc;

use mpart::profile::TriggerPolicy;
use mpart::session::{SessionConfig, SessionManager};
use mpart_bench::table::{arg_usize, f2, Table};
use mpart_bench::Report;
use mpart_cost::{CostModel, DataSizeModel, ExecTimeModel};
use mpart_ir::interp::BuiltinRegistry;
use mpart_ir::parse::parse_program;
use mpart_ir::types::ElemType;
use mpart_ir::{IrError, Program, Value};

/// Work units one wire byte costs — the link calibration shared by the
/// scoring formula and the one-weight cell's per-byte charge.
const WORK_PER_BYTE: f64 = 0.05;

/// Compressed frame size during the comms-bound phase.
const BIG_FRAME: usize = 12_000;
/// Compressed frame size during the compute-bound phase.
const SMALL_FRAME: usize = 64;
/// Grind rounds during the compute-bound phase (phase 1 uses 0).
const HEAVY_ROUNDS: i64 = 100;

const SRC: &str = r#"
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

fn arg_int(args: &[Value], idx: usize) -> i64 {
    match args.get(idx) {
        Some(Value::Int(v)) => *v,
        _ => 0,
    }
}

/// The handler's builtins, with explicit work-unit prices. The compute
/// stages are *pure* (they may run on either side of the cut): `decode`
/// inflates the frame 4× (work grows with the compressed size) and the
/// two `grind` stages each charge `32 × rounds`. Only `display` is
/// native — a stop node pinned to the receiver. Both sides register the
/// same set.
fn builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_pure(
        "decode",
        |_, args| 16 + arg_int(args, 1).max(0) as u64 / 64,
        |heap, args| {
            let inflated = (arg_int(args, 1).max(0) as usize) * 4;
            Ok(Value::Ref(heap.alloc_array(ElemType::Byte, inflated)))
        },
    );
    for stage in ["grind1", "grind2"] {
        b.register_pure(
            stage,
            |_, args| 32 * arg_int(args, 1).max(0) as u64,
            |_, args| Ok(Value::Int(arg_int(args, 1))),
        );
    }
    b.register_native("display", 4, |_, _| Ok(Value::Null));
    b
}

type EventFn =
    Box<dyn FnOnce(&mut mpart_ir::interp::ExecCtx) -> Result<Vec<Value>, IrError> + Send>;

fn frame_event(program: Arc<Program>, bytes: usize, rounds: i64) -> EventFn {
    Box::new(move |ctx| {
        let classes = &program.classes;
        let class = classes.id("Frame").expect("Frame class");
        let decl = classes.decl(class);
        let f = ctx.heap.alloc_object(classes, class);
        let b = ctx.heap.alloc_array(ElemType::Byte, bytes);
        ctx.heap.set_field(f, decl.field("n").unwrap(), Value::Int(bytes as i64))?;
        ctx.heap.set_field(f, decl.field("rounds").unwrap(), Value::Int(rounds))?;
        ctx.heap.set_field(f, decl.field("buff").unwrap(), Value::Ref(b))?;
        Ok(vec![Value::Ref(f)])
    })
}

#[derive(Clone, Copy)]
enum Mode {
    FixedData,
    FixedExec,
    OneWeight,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::FixedData => "fixed data-size",
            Mode::FixedExec => "fixed exec-time",
            Mode::OneWeight => "exec-time + per-byte",
        }
    }
}

struct Cell {
    mode: Mode,
    phase_cost: [f64; 2],
    wire_bytes: [u64; 2],
    plan_switches: u64,
}

impl Cell {
    fn total(&self) -> f64 {
        self.phase_cost[0] + self.phase_cost[1]
    }
}

/// Drives one session through both phases and scores every delivery.
fn run_cell(program: &Arc<Program>, mode: Mode, messages: usize) -> Cell {
    let mut config = SessionConfig::default().with_workers(1).with_trigger(TriggerPolicy::Rate(8));
    if let Mode::OneWeight = mode {
        config = config.with_serialize_cost(WORK_PER_BYTE);
    }
    let model: Arc<dyn CostModel> = match mode {
        Mode::FixedData => Arc::new(DataSizeModel::new()),
        Mode::FixedExec | Mode::OneWeight => Arc::new(ExecTimeModel::new()),
    };
    let mut mgr = SessionManager::new(config);
    let id = mgr
        .open_session(Arc::clone(program), "show", model, builtins(), builtins())
        .expect("analysis");

    let mut cell = Cell { mode, phase_cost: [0.0; 2], wire_bytes: [0; 2], plan_switches: 0 };
    for phase in 0..2 {
        let (bytes, rounds) = if phase == 0 { (BIG_FRAME, 0) } else { (SMALL_FRAME, HEAVY_ROUNDS) };
        for _ in 0..messages {
            let out =
                mgr.deliver(id, frame_event(Arc::clone(program), bytes, rounds)).expect("deliver");
            cell.phase_cost[phase] +=
                out.wire_bytes as f64 * WORK_PER_BYTE + out.mod_work.max(out.demod_work) as f64;
            cell.wire_bytes[phase] += out.wire_bytes as u64;
            cell.plan_switches += u64::from(out.reconfigured);
        }
    }
    mgr.shutdown();
    cell
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let messages = arg_usize("messages", if smoke { 40 } else { 120 });

    let program = Arc::new(parse_program(SRC).expect("bench program"));

    let mut table = Table::new(
        "One weight vs fixed models: shifting workload (phase 1 comms-bound, phase 2 compute-bound)",
        &[
            "cell",
            "phase1 cost/msg",
            "phase2 cost/msg",
            "total cost",
            "phase1 wire KB",
            "phase2 wire KB",
            "plan switches",
        ],
    );

    let cells: Vec<Cell> = [Mode::FixedData, Mode::FixedExec, Mode::OneWeight]
        .into_iter()
        .map(|mode| run_cell(&program, mode, messages))
        .collect();

    for cell in &cells {
        table.row(vec![
            cell.mode.name().to_string(),
            f2(cell.phase_cost[0] / messages as f64),
            f2(cell.phase_cost[1] / messages as f64),
            f2(cell.total()),
            f2(cell.wire_bytes[0] as f64 / 1024.0),
            f2(cell.wire_bytes[1] as f64 / 1024.0),
            cell.plan_switches.to_string(),
        ]);
    }
    table.note(
        "cost = wire_bytes x work_per_byte + max(mod_work, demod_work) per \
         message; the per-byte cell prices each PSE as work_per_byte x bytes \
         + max(mod_work, demod_work), the same sum, under a Rate(8) trigger",
    );
    table.print();

    let one = &cells[2];
    for fixed in &cells[..2] {
        assert!(
            one.total() < fixed.total(),
            "one weight ({:.1}) beats {} ({:.1}) on the shifting workload",
            one.total(),
            fixed.mode.name(),
            fixed.total(),
        );
    }
    println!(
        "one weight beats fixed data-size by {:.1}% and fixed exec-time by {:.1}%",
        100.0 * (1.0 - one.total() / cells[0].total()),
        100.0 * (1.0 - one.total() / cells[1].total()),
    );

    let mut report = Report::new("modelswitch");
    report
        .param_u64("messages_per_phase", messages as u64)
        .param_u64("smoke", u64::from(smoke))
        .param_u64("one_weight_beats_both_baselines", 1)
        .add_table(&table);
    report.finish();
}
