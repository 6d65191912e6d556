//! What a workload runs: the handler program, its builtins, and the seeded
//! event pool with the reference result of every event.
//!
//! The program under test receives only generated inputs: `--seed` drives
//! the pool's payload contents here (and the Mixed frame schedule and the
//! `FaultPlan` in the workloads); nothing else about a run is random.

use std::sync::Arc;

use method_partitioning::apps::image;
use method_partitioning::core::profile::{DemodMessageProfile, ModMessageProfile, TriggerPolicy};
use method_partitioning::core::reconfig::ReconfigUnit;
use method_partitioning::core::PartitionedHandler;
use method_partitioning::cost::{CostModel, DataSizeModel};
use method_partitioning::ir::engine::{Engine, InterpEngine};
use method_partitioning::ir::heap::ArrayData;
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::{IrError, Program, Value};

use crate::spec::{WorkloadKind, BULK_PAYLOAD_BYTES, DENSE_FRAME_SIDE};

/// Distinct events per pool. Envelope `i` carries event `i % POOL`, so the
/// reference run costs `POOL` handler executions however long the session.
pub const POOL: usize = 64;

/// One generated input event.
#[derive(Clone)]
pub enum Event {
    /// A scalar payload (`small.jmpl`, `trivial.jmpl`).
    Int(i64),
    /// A tagged byte array (`bulk.jmpl`).
    Blob { tag: i64, data: Arc<Vec<u8>> },
    /// A `side`×`side` int frame (`dense.jmpl`).
    Frame { side: i64, pixels: Arc<Vec<i64>> },
    /// A `side`×`side` image of the paper's streaming application.
    Image { side: i64 },
}

impl Event {
    /// Allocates the event in the sender's context, as a source would.
    pub fn build(&self, program: &Program, ctx: &mut ExecCtx) -> Result<Vec<Value>, IrError> {
        let classes = &program.classes;
        match self {
            Event::Int(v) => Ok(vec![Value::Int(*v)]),
            Event::Blob { tag, data } => {
                let class = classes.id("Blob").expect("bulk.jmpl declares Blob");
                let decl = classes.decl(class);
                let obj = ctx.heap.alloc_object(classes, class);
                let arr = ctx.heap.alloc_array_from(ArrayData::Byte(data.as_ref().clone()));
                ctx.heap.set_field(obj, decl.field("tag").expect("tag"), Value::Int(*tag))?;
                ctx.heap.set_field(obj, decl.field("data").expect("data"), Value::Ref(arr))?;
                Ok(vec![Value::Ref(obj)])
            }
            Event::Frame { side, pixels } => {
                let class = classes.id("Frame").expect("dense.jmpl declares Frame");
                let decl = classes.decl(class);
                let obj = ctx.heap.alloc_object(classes, class);
                let arr = ctx.heap.alloc_array_from(ArrayData::Int(pixels.as_ref().clone()));
                ctx.heap.set_field(obj, decl.field("side").expect("side"), Value::Int(*side))?;
                ctx.heap.set_field(obj, decl.field("buff").expect("buff"), Value::Ref(arr))?;
                Ok(vec![Value::Ref(obj)])
            }
            Event::Image { side } => image::make_frame(program, ctx, *side),
        }
    }

    /// The scalar form `Router::deliver` ships over the node protocol.
    pub fn scalar_args(&self) -> Vec<Value> {
        match self {
            Event::Int(v) => vec![Value::Int(*v)],
            _ => panic!("only int events cross the node protocol"),
        }
    }
}

/// splitmix64: the one generator behind every seeded input.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Frames in one cycle of the Mixed schedule: phase lengths 1..=20 once
/// each, for each of the two frame sizes.
pub const MIXED_CYCLE: usize = 2 * 210;

/// The Mixed frame schedule of `adapt_mixed`: small-frame and large-frame
/// phases alternate, each lasting 1 to 20 frames as in the paper. The
/// lengths are a stratified draw — per cycle every length 1..=20 occurs
/// once per frame size, in seeded order — so every seed streams the same
/// number of frames of each size over the same number of phase changes:
/// what varies with the seed is the order, which is what the adaptive
/// runtime has to track. Entries index [`Fixture::events`] (0 small,
/// 1 large); `n` must be a multiple of [`MIXED_CYCLE`].
pub fn mixed_schedule(n: usize, seed: u64) -> Vec<usize> {
    assert!(n.is_multiple_of(MIXED_CYCLE), "adapt_mixed streams whole cycles, {n} frames is not");
    let mut rng = SplitMix(seed ^ 0x006D_6978_6564);
    let shuffled = |rng: &mut SplitMix| {
        let mut lens: Vec<usize> = (1..=20).collect();
        for i in (1..lens.len()).rev() {
            lens.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        lens
    };
    let mut out = Vec::with_capacity(n);
    for _ in 0..n / MIXED_CYCLE {
        let (small, large) = (shuffled(&mut rng), shuffled(&mut rng));
        for (s, l) in small.iter().zip(&large) {
            out.extend(std::iter::repeat_n(0, *s));
            out.extend(std::iter::repeat_n(1, *l));
        }
    }
    out
}

/// Which plan a workload's handler serves under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PlanPin {
    /// The statically selected min-cut (what `analyze` installs).
    Static,
    /// Pinned to the entry cut: the raw event crosses the wire.
    Entry,
    /// The min-cut the Reconfiguration Unit selects after profiling a few
    /// events, installed once and then frozen: where an adaptive
    /// deployment settles, without re-selections during the timed region.
    Profiled,
}

/// Runs one event through both halves of `handler` by hand and feeds the
/// profile to `unit`, as a transport does after every envelope.
pub fn profile_one(
    handler: &Arc<PartitionedHandler>,
    unit: &mut ReconfigUnit,
    sender: &mut ExecCtx,
    receiver: &mut ExecCtx,
    args: Vec<Value>,
) -> Result<(), IrError> {
    sender.trace_digests = false;
    receiver.trace_digests = false;
    let run = handler.modulator().handle(sender, args)?;
    let demod = handler.demodulator().handle(receiver, &run.message)?;
    unit.record_mod(ModMessageProfile {
        samples: run.samples,
        split: run.message.pse,
        mod_work: run.mod_work,
        t_mod: None,
    });
    unit.record_samples(&demod.samples);
    unit.record_demod(DemodMessageProfile {
        pse: demod.pse,
        demod_work: demod.demod_work,
        t_demod: None,
    });
    Ok(())
}

/// Everything a workload needs to instantiate and check its pipeline.
pub struct Fixture {
    pub program: Arc<Program>,
    pub func: &'static str,
    pub model: Arc<dyn CostModel>,
    pub sender_builtins: BuiltinRegistry,
    pub receiver_builtins: BuiltinRegistry,
    pub plan: PlanPin,
    /// `POOL` events generated from the seed (`adapt_mixed` keeps its two
    /// frame sizes here and draws the schedule from the seed instead).
    pub events: Vec<Event>,
    /// Reference result of each pool event: the unpartitioned handler on
    /// the reference interpreter.
    pub expected: Vec<Option<Value>>,
}

fn sink_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_native("sink", 1, |_, _| Ok(Value::Null));
    b
}

impl Fixture {
    pub fn build(kind: WorkloadKind, seed: u64) -> Result<Fixture, IrError> {
        let mut rng = SplitMix(seed ^ 0x7069_7065_6C69_6E65);
        let (source, func, plan) = match kind {
            WorkloadKind::TcpSmall | WorkloadKind::SimBatch => {
                (include_str!("../handlers/small.jmpl"), "tally", PlanPin::Static)
            }
            WorkloadKind::TcpBulk => {
                (include_str!("../handlers/bulk.jmpl"), "store", PlanPin::Entry)
            }
            WorkloadKind::ComputeDense => {
                (include_str!("../handlers/dense.jmpl"), "shrink", PlanPin::Profiled)
            }
            WorkloadKind::ManagerJournal | WorkloadKind::RouteTcp => {
                (include_str!("../handlers/trivial.jmpl"), "bump", PlanPin::Static)
            }
            WorkloadKind::AdaptMixed => ("", "push", PlanPin::Static),
        };
        let (program, model, sender_builtins, receiver_builtins, events) =
            if kind == WorkloadKind::AdaptMixed {
                let program = image::image_program()?;
                let model = image::image_cost_model(&program);
                let (s, r) = (image::server_builtins(&program), image::client_builtins(&program));
                (program, model, s, r, vec![Event::Image { side: 80 }, Event::Image { side: 200 }])
            } else {
                let program = Arc::new(parse_program(source)?);
                let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
                let events = (0..POOL)
                    .map(|_| match kind {
                        WorkloadKind::TcpBulk => {
                            let mut data = vec![0u8; BULK_PAYLOAD_BYTES];
                            for chunk in data.chunks_mut(8) {
                                let word = rng.next().to_le_bytes();
                                chunk.copy_from_slice(&word[..chunk.len()]);
                            }
                            Event::Blob { tag: (rng.next() >> 40) as i64, data: Arc::new(data) }
                        }
                        WorkloadKind::ComputeDense => {
                            let side = DENSE_FRAME_SIDE;
                            let pixels = (0..side * side).map(|_| (rng.next() & 0xFF) as i64);
                            Event::Frame { side, pixels: Arc::new(pixels.collect()) }
                        }
                        _ => Event::Int((rng.next() >> 24) as i64),
                    })
                    .collect();
                (program, model, BuiltinRegistry::new(), sink_builtins(), events)
            };
        let mut fixture = Fixture {
            program,
            func,
            model,
            sender_builtins,
            receiver_builtins,
            plan,
            events,
            expected: Vec::new(),
        };
        fixture.expected =
            (0..fixture.events.len()).map(|i| fixture.reference(i)).collect::<Result<_, _>>()?;
        Ok(fixture)
    }

    /// The unpartitioned handler on the reference interpreter, in a context
    /// that owns every builtin (the receiver's registry is the superset).
    fn reference(&self, index: usize) -> Result<Option<Value>, IrError> {
        let mut ctx = ExecCtx::with_builtins(&self.program, self.receiver_builtins.clone());
        ctx.trace_digests = false;
        let args = self.events[index].build(&self.program, &mut ctx)?;
        InterpEngine::new(Arc::clone(&self.program)).run(&mut ctx, self.func, args)
    }

    /// A fresh handler through `cache`-less analysis (a real analysis miss),
    /// with the workload's plan pin and the default engine choice applied.
    pub fn analyze(&self) -> Result<Arc<PartitionedHandler>, IrError> {
        let handler = PartitionedHandler::analyze(
            Arc::clone(&self.program),
            self.func,
            Arc::clone(&self.model),
        )?;
        self.prepare(&handler)?;
        Ok(handler)
    }

    /// Applies the plan pin and compiles the handler (default
    /// `EngineChoice`, as `SessionManager` does at session open).
    pub fn prepare(&self, handler: &Arc<PartitionedHandler>) -> Result<(), IrError> {
        handler.select_engine(Default::default());
        match self.plan {
            PlanPin::Static => {}
            PlanPin::Entry => {
                let entry = handler.entry_pse().expect("analysis always exposes the entry PSE");
                handler.install_plan(&[entry]);
            }
            PlanPin::Profiled => {
                let mut unit = ReconfigUnit::new(
                    Arc::clone(handler.analysis()),
                    handler.model().kind(),
                    TriggerPolicy::Never,
                );
                let mut receiver =
                    ExecCtx::with_builtins(&self.program, self.receiver_builtins.clone());
                for event in self.events.iter().take(4) {
                    let mut sender =
                        ExecCtx::with_builtins(&self.program, self.sender_builtins.clone());
                    let args = event.build(&self.program, &mut sender)?;
                    profile_one(handler, &mut unit, &mut sender, &mut receiver, args)?;
                }
                handler.install_plan(&unit.force_reconfigure()?.active);
            }
        }
        Ok(())
    }

    /// The closure a transport's `publish`/`submit`/`deliver` takes for
    /// envelope `i`. Owns its data, so it can cross to a worker thread.
    pub fn make_event(
        &self,
        i: u64,
    ) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send + 'static {
        let program = Arc::clone(&self.program);
        let event = self.events[i as usize % self.events.len()].clone();
        move |ctx| event.build(&program, ctx)
    }

    /// Whether `ret` is the reference result of envelope `i`.
    pub fn matches(&self, i: u64, ret: &Option<Value>) -> bool {
        self.expected[i as usize % self.expected.len()] == *ret
    }
}
