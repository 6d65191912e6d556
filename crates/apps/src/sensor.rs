//! The sensor data-processing application (§5.2).
//!
//! Mobile sensors capture signal arrays and push them through a
//! compute-intensive processing pipeline before delivery to a client.
//! Method Partitioning, under the execution-time cost model, distributes
//! the pipeline stages between sensor (producer) and client (consumer)
//! according to their current effective speeds — which change with
//! perturbation-thread load (PLen / AProb / LIndex).
//!
//! Four implementation versions reproduce the rows of Tables 3–4 and the
//! series of Figures 7–8:
//!
//! * [`SensorVersion::Consumer`] — all processing in the consumer;
//! * [`SensorVersion::Producer`] — all processing in the producer;
//! * [`SensorVersion::Divided`] — split at the stage-count midpoint
//!   ("two roughly equal parts" — equal in stage count, not in cost,
//!   which is why finer-grained balancing wins even without load);
//! * [`SensorVersion::MethodPartitioning`] — adaptive.
//!
//! The pipeline has 12 stages of deliberately uneven cost, so the
//! handler exposes a dense ladder of PSEs along one path (the paper's
//! sensor handler had 21), and the profiler can place the split at any
//! stage boundary.

use std::sync::Arc;

use mpart::profile::TriggerPolicy;
use mpart::{PartitionedHandler, PseId};
use mpart_cost::{CostModel, ExecTimeModel};
use mpart_ir::heap::{ArrayData, Heap};
use mpart_ir::instr::{Instr, Rvalue};
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::parse::parse_program;
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::{SimConfig, SimSession};
use mpart_simnet::{Host, Link, PerturbConfig, PerturbationTrace, SimTime};
use rand::prelude::*;

/// Number of samples in a captured signal.
pub const SIGNAL_LEN: usize = 2048;

/// The 12 pipeline stages: `(name, cost-per-input-element)`. The early
/// stages are cheap per-element scans of the full signal; the later
/// stages run heavier kernels on the decimated spectrum.
pub const STAGES: [(&str, u64); 12] = [
    ("stage_calibrate", 2),
    ("stage_dc_remove", 2),
    ("stage_window", 2),
    ("stage_filter", 2),
    ("stage_derivative", 2),
    ("stage_decimate", 2), // reduces 2048 -> 512
    ("stage_spectrum", 10),
    ("stage_threshold", 10),
    ("stage_cluster", 14),
    ("stage_track", 14),
    ("stage_classify", 14),
    ("stage_annotate", 10), // reduces 512 -> 64
];

/// The handler program: a straight-line pipeline ending in the native
/// delivery call — every inter-stage edge is a Potential Split Edge.
pub const SENSOR_PROGRAM: &str = r#"
class SensorData { count: int, samples: ref }

fn process(event) {
    z = event instanceof SensorData
    if z == 0 goto skip
    d = (SensorData) event
    a0 = d.samples
    a1 = call stage_calibrate(a0)
    a2 = call stage_dc_remove(a1)
    a3 = call stage_window(a2)
    a4 = call stage_filter(a3)
    a5 = call stage_derivative(a4)
    a6 = call stage_decimate(a5)
    a7 = call stage_spectrum(a6)
    a8 = call stage_threshold(a7)
    a9 = call stage_cluster(a8)
    a10 = call stage_track(a9)
    a11 = call stage_classify(a10)
    a12 = call stage_annotate(a11)
    native deliver_result(a12)
    return 1
skip:
    return 0
}
"#;

/// Parses the handler program.
///
/// # Errors
///
/// Propagates parser errors (never fails for the embedded source).
pub fn sensor_program() -> Result<Arc<Program>, IrError> {
    Ok(Arc::new(parse_program(SENSOR_PROGRAM)?))
}

fn float_array<'h>(heap: &'h Heap, v: &Value) -> Result<&'h [f64], IrError> {
    let r = v.as_ref("stage input")?;
    match heap.cell(r)? {
        mpart_ir::heap::HeapCell::Array(ArrayData::Float(xs)) => Ok(xs),
        _ => Err(IrError::Type("stage input must be a float array".into())),
    }
}

fn register_stage(
    b: &mut BuiltinRegistry,
    name: &'static str,
    cost_per_elem: u64,
    transform: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static,
) {
    b.register_pure(
        name,
        move |heap, args| {
            args.first()
                .and_then(|v| float_array(heap, v).ok())
                .map(|xs| cost_per_elem * xs.len() as u64)
                .unwrap_or(1)
        },
        move |heap, args| {
            let input = float_array(heap, &args[0])?.to_vec();
            let out = transform(&input);
            Ok(Value::Ref(heap.alloc_array_from(ArrayData::Float(out))))
        },
    );
}

/// Pure stage builtins, available on both sides. Every stage performs a
/// real (deterministic) numeric transformation; its declared work cost is
/// `cost-per-element × input length`.
pub fn stage_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    register_stage(&mut b, "stage_calibrate", STAGES[0].1, |xs| {
        xs.iter().map(|x| x * 1.01 + 0.003).collect()
    });
    register_stage(&mut b, "stage_dc_remove", STAGES[1].1, |xs| {
        let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        xs.iter().map(|x| x - mean).collect()
    });
    register_stage(&mut b, "stage_window", STAGES[2].1, |xs| {
        let n = xs.len().max(1) as f64;
        xs.iter()
            .enumerate()
            .map(|(i, x)| {
                let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / n).cos();
                x * w
            })
            .collect()
    });
    register_stage(&mut b, "stage_filter", STAGES[3].1, |xs| {
        (0..xs.len())
            .map(|i| {
                let a = xs[i.saturating_sub(1)];
                let c = xs[(i + 1).min(xs.len() - 1)];
                (a + 2.0 * xs[i] + c) / 4.0
            })
            .collect()
    });
    register_stage(&mut b, "stage_derivative", STAGES[4].1, |xs| {
        (0..xs.len()).map(|i| xs[(i + 1).min(xs.len() - 1)] - xs[i]).collect()
    });
    register_stage(&mut b, "stage_decimate", STAGES[5].1, |xs| {
        xs.chunks(4).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
    });
    register_stage(&mut b, "stage_spectrum", STAGES[6].1, |xs| {
        // A cheap stand-in for a spectral transform: absolute second
        // difference energy per bin.
        (0..xs.len())
            .map(|i| {
                let a = xs[i.saturating_sub(1)];
                let c = xs[(i + 1).min(xs.len() - 1)];
                (2.0 * xs[i] - a - c).abs()
            })
            .collect()
    });
    register_stage(&mut b, "stage_threshold", STAGES[7].1, |xs| {
        let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        xs.iter().map(|x| if *x > mean { *x } else { 0.0 }).collect()
    });
    register_stage(&mut b, "stage_cluster", STAGES[8].1, |xs| {
        // Run-length smooth of detections.
        let mut out = xs.to_vec();
        for i in 1..out.len() {
            if out[i] == 0.0 && xs[i - 1] > 0.0 && xs[(i + 1).min(xs.len() - 1)] > 0.0 {
                out[i] = (xs[i - 1] + xs[(i + 1).min(xs.len() - 1)]) / 2.0;
            }
        }
        out
    });
    register_stage(&mut b, "stage_track", STAGES[9].1, |xs| {
        let mut acc = 0.0;
        xs.iter()
            .map(|x| {
                acc = 0.9 * acc + 0.1 * x;
                acc
            })
            .collect()
    });
    register_stage(&mut b, "stage_classify", STAGES[10].1, |xs| {
        xs.iter().map(|x| if *x > 0.05 { 1.0 } else { 0.0 }).collect()
    });
    register_stage(&mut b, "stage_annotate", STAGES[11].1, |xs| {
        // Summarize into 64 report bins.
        let bins = 64;
        let chunk = xs.len().div_ceil(bins).max(1);
        xs.chunks(chunk).map(|c| c.iter().sum::<f64>()).take(bins).collect()
    });
    b
}

/// Consumer-side builtins: the stages plus the native delivery sink.
pub fn consumer_builtins() -> BuiltinRegistry {
    let mut b = stage_builtins();
    b.register_native("deliver_result", 64, |heap, args| {
        // The client consumes the 64-bin report.
        let r = args[0].as_ref("deliver_result report")?;
        let _ = heap.array_len(r)?;
        Ok(Value::Null)
    });
    b
}

/// Allocates one captured signal in the sender's context: `SensorData`
/// with a deterministic pseudo-random `float[SIGNAL_LEN]` derived from
/// `seq` and `seed`.
///
/// # Errors
///
/// Propagates heap errors.
pub fn make_signal(
    program: &Program,
    ctx: &mut ExecCtx,
    seq: u64,
    seed: u64,
) -> Result<Vec<Value>, IrError> {
    let classes = &program.classes;
    let class = classes.id("SensorData").expect("SensorData");
    let decl = classes.decl(class);
    let mut rng = StdRng::seed_from_u64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let samples: Vec<f64> = (0..SIGNAL_LEN)
        .map(|i| (i as f64 * 0.05).sin() + 0.2 * rng.random_range(-1.0..1.0))
        .collect();
    let obj = ctx.heap.alloc_object(classes, class);
    let arr = ctx.heap.alloc_array_from(ArrayData::Float(samples));
    ctx.heap.set_field(obj, decl.field("count").expect("count"), Value::Int(SIGNAL_LEN as i64))?;
    ctx.heap.set_field(obj, decl.field("samples").expect("samples"), Value::Ref(arr))?;
    Ok(vec![Value::Ref(obj)])
}

/// Which implementation of the application runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorVersion {
    /// All processing inside the consumer.
    Consumer,
    /// All processing inside the producer.
    Producer,
    /// Fixed split at the stage-count midpoint.
    Divided,
    /// Adaptive Method Partitioning.
    MethodPartitioning,
}

impl SensorVersion {
    /// All four versions, in the tables' column order.
    pub const ALL: [SensorVersion; 4] = [
        SensorVersion::Consumer,
        SensorVersion::Producer,
        SensorVersion::Divided,
        SensorVersion::MethodPartitioning,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            SensorVersion::Consumer => "Consumer Version",
            SensorVersion::Producer => "Producer Version",
            SensorVersion::Divided => "Divided Version",
            SensorVersion::MethodPartitioning => "Method Partitioning",
        }
    }
}

/// The execution-time cost model used by this application.
pub fn sensor_cost_model() -> Arc<dyn CostModel> {
    Arc::new(ExecTimeModel::new())
}

/// The PSE on the edge out of the handler's `call <callee>`.
fn pse_after_call(handler: &PartitionedHandler, callee: &str) -> PseId {
    let pc = handler.func().instrs.iter().position(|i| {
        matches!(i, Instr::Assign { rvalue: Rvalue::Invoke { callee: c, .. }, .. } if c == callee)
    });
    let pses = handler.analysis().pses();
    pses.iter().position(|p| Some(p.edge.from) == pc).expect("a PSE after the stage")
}

/// PSEs with an empty live set (the filtered-path edges) — included in
/// every fixed plan so non-`SensorData` events stay coverable.
fn side_branch_pses(handler: &PartitionedHandler) -> Vec<PseId> {
    handler
        .analysis()
        .pses()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.inter.is_empty() && !p.edge.is_entry())
        .map(|(i, _)| i)
        .collect()
}

/// The processing path's earliest split: the non-entry PSE that ships
/// data (filtered-path edges ship nothing) nearest the start node.
fn earliest_processing_pse(handler: &PartitionedHandler) -> PseId {
    let dag = handler.analysis().dag();
    let pses = handler.analysis().pses().iter().enumerate();
    pses.filter(|(_, p)| !p.edge.is_entry() && !p.inter.is_empty())
        .min_by_key(|(_, p)| dag.position(p.edge).before)
        .map(|(i, _)| i)
        .expect("a processing-path PSE")
}

/// The fixed plan of a manual version.
///
/// # Panics
///
/// Panics for the adaptive version or if the handler shape is unexpected.
pub fn fixed_plan(version: SensorVersion, handler: &PartitionedHandler) -> Vec<PseId> {
    let mut plan = side_branch_pses(handler);
    plan.push(match version {
        // Earliest split on the processing path: everything except the
        // type check runs in the consumer. (The entry edge itself is
        // deduped away by the points-to analysis: the post-cast edge
        // ships the identical object.)
        SensorVersion::Consumer => earliest_processing_pse(handler),
        // Split right after the last stage: the edge out of the final
        // call instruction.
        SensorVersion::Producer => pse_after_call(handler, "stage_annotate"),
        // Stage-count midpoint: after stage 6 of 12.
        SensorVersion::Divided => pse_after_call(handler, "stage_decimate"),
        SensorVersion::MethodPartitioning => panic!("adaptive version has no fixed plan"),
    });
    plan
}

/// Load configuration of one host for an experiment cell.
#[derive(Debug, Clone, Copy)]
pub struct HostLoad {
    /// Active-period probability.
    pub aprob: f64,
    /// Expected period length in milliseconds.
    pub plen_ms: f64,
    /// Load index of active periods.
    pub lindex: f64,
}

impl HostLoad {
    /// No perturbation.
    pub fn free() -> Self {
        HostLoad { aprob: 0.0, plen_ms: 1000.0, lindex: 0.0 }
    }

    /// Constant load: always-active periods at the given index (Table 4's
    /// rows).
    pub fn constant(lindex: f64) -> Self {
        HostLoad { aprob: if lindex > 0.0 { 1.0 } else { 0.0 }, plen_ms: 1000.0, lindex }
    }

    fn trace(&self, horizon: SimTime, seed: u64) -> PerturbationTrace {
        if self.aprob <= 0.0 || self.lindex <= 0.0 {
            return PerturbationTrace::idle();
        }
        PerturbationTrace::generate(
            &PerturbConfig::single(self.plen_ms, self.aprob, self.lindex),
            horizon,
            seed,
        )
    }
}

/// One experiment cell: host speeds, loads, link, and length.
#[derive(Debug, Clone)]
pub struct SensorSetup {
    /// Producer base speed (work units/s).
    pub producer_speed: f64,
    /// Consumer base speed (work units/s).
    pub consumer_speed: f64,
    /// Producer load.
    pub producer_load: HostLoad,
    /// Consumer load.
    pub consumer_load: HostLoad,
    /// The connecting link.
    pub link: Link,
    /// Messages per run.
    pub messages: usize,
    /// Seed shared by all compared versions (pre-generated randoms, as in
    /// the paper).
    pub seed: u64,
}

/// Base speed of the Intel/Linux cluster nodes, calibrated so the Consumer
/// Version's unloaded processing time lands near Table 4's 88.44 ms.
pub const PC_SPEED: f64 = 760_000.0;
/// Base speed of the Sun Ultra-30 nodes (≈2.7× slower).
pub const SUN_SPEED: f64 = 281_000.0;
/// Marshalling work per wire byte (both sides).
pub const SERIALIZE_WORK_PER_BYTE: f64 = 0.35;

impl SensorSetup {
    /// The homogeneous Intel-cluster setup of Table 4 / Figures 7–8.
    pub fn intel_cluster(messages: usize, seed: u64) -> Self {
        SensorSetup {
            producer_speed: PC_SPEED,
            consumer_speed: PC_SPEED,
            producer_load: HostLoad::free(),
            consumer_load: HostLoad::free(),
            link: Link::fast_ethernet(),
            messages,
            seed,
        }
    }

    /// The heterogeneous setup of Table 3: messages flow PC→Sun.
    pub fn pc_to_sun(messages: usize, seed: u64) -> Self {
        SensorSetup {
            producer_speed: PC_SPEED,
            consumer_speed: SUN_SPEED,
            producer_load: HostLoad::free(),
            consumer_load: HostLoad::free(),
            link: Link::gigabit(),
            messages,
            seed,
        }
    }

    /// The heterogeneous setup of Table 3: messages flow Sun→PC.
    pub fn sun_to_pc(messages: usize, seed: u64) -> Self {
        SensorSetup {
            producer_speed: SUN_SPEED,
            consumer_speed: PC_SPEED,
            producer_load: HostLoad::free(),
            consumer_load: HostLoad::free(),
            link: Link::gigabit(),
            messages,
            seed,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct SensorRunStats {
    /// Average message processing time in milliseconds (makespan / n).
    pub avg_ms: f64,
    /// Plan installations during the run.
    pub plan_installs: u64,
    /// Average wire bytes per message.
    pub avg_wire_bytes: f64,
}

/// Runs `version` under `setup`.
///
/// # Errors
///
/// Propagates analysis/runtime errors.
pub fn run_sensor_experiment(
    version: SensorVersion,
    setup: &SensorSetup,
) -> Result<SensorRunStats, IrError> {
    let program = sensor_program()?;
    let horizon = SimTime::from_millis(10 * 60 * 1000);
    let producer = Host::new("producer", setup.producer_speed)
        .with_perturbation(setup.producer_load.trace(horizon, setup.seed.wrapping_mul(3) + 1));
    let consumer = Host::new("consumer", setup.consumer_speed)
        .with_perturbation(setup.consumer_load.trace(horizon, setup.seed.wrapping_mul(5) + 2));

    let trigger = match version {
        SensorVersion::MethodPartitioning => TriggerPolicy::Rate(1),
        _ => TriggerPolicy::Never,
    };
    let config = SimConfig::new(producer, setup.link.clone(), consumer, trigger)
        .with_serialize_cost(SERIALIZE_WORK_PER_BYTE);

    let mut session = match version {
        SensorVersion::MethodPartitioning => SimSession::adaptive(
            Arc::clone(&program),
            "process",
            sensor_cost_model(),
            stage_builtins(),
            consumer_builtins(),
            config,
        )?,
        fixed => {
            let probe =
                PartitionedHandler::analyze(Arc::clone(&program), "process", sensor_cost_model())?;
            let plan = fixed_plan(fixed, &probe);
            SimSession::fixed(
                Arc::clone(&program),
                "process",
                sensor_cost_model(),
                &plan,
                stage_builtins(),
                consumer_builtins(),
                config,
            )?
        }
    };

    let seed = setup.seed;
    let program_ref = Arc::clone(&program);
    session.run(setup.messages, move |seq, ctx| make_signal(&program_ref, ctx, seq, seed))?;

    let total_bytes: usize = session.reports().iter().map(|r| r.wire_bytes).sum();
    Ok(SensorRunStats {
        avg_ms: session.avg_processing_ms(),
        plan_installs: session.plan_installs(),
        avg_wire_bytes: total_bytes as f64 / setup.messages.max(1) as f64,
    })
}

/// The signal-complexity extension experiment.
///
/// The paper motivates adaptation partly by "changes in the complexities
/// of signals (e.g., the amounts of 'interesting' vs. 'uninteresting'
/// data currently captured)". This variant pipeline makes processing cost
/// *content-dependent*: a detection stage keeps only the samples above a
/// threshold, and every later stage's cost scales with the number of
/// detections — quadratically for the pairwise correlation stage. Bursty
/// traffic therefore reshapes the cost profile along the pipeline, and
/// the optimal split point moves with it.
pub const COMPLEXITY_PROGRAM: &str = r#"
class SensorData { count: int, samples: ref }

fn track(event) {
    z = event instanceof SensorData
    if z == 0 goto skip
    d = (SensorData) event
    a0 = d.samples
    a1 = call stage_prepare(a0)
    a2 = call stage_detect(a1)
    a3 = call stage_refine(a2)
    a4 = call stage_correlate(a3)
    a5 = call stage_classify_det(a4)
    a6 = call stage_report(a5)
    native deliver_result(a6)
    return 1
skip:
    return 0
}
"#;

/// Parses the complexity-extension program.
///
/// # Errors
///
/// Propagates parser errors (never fails for the embedded source).
pub fn complexity_program() -> Result<Arc<Program>, IrError> {
    Ok(Arc::new(parse_program(COMPLEXITY_PROGRAM)?))
}

/// Builtins for the complexity pipeline. Detection keeps samples with
/// `|x| > 0.8`; refine/classify cost linearly and correlate costs
/// quadratically in the detection count.
pub fn complexity_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    register_stage(&mut b, "stage_prepare", 2, |xs| xs.iter().map(|x| x * 1.02).collect());
    register_stage(&mut b, "stage_detect", 2, |xs| {
        xs.iter().copied().filter(|x| x.abs() > 0.8).collect()
    });
    register_stage(&mut b, "stage_refine", 10, |xs| xs.iter().map(|x| x * 0.99 + 0.001).collect());
    // Pairwise correlation: cost scales with len^2 (capped), output len.
    b.register_pure(
        "stage_correlate",
        |heap, args| {
            args.first()
                .and_then(|v| float_array(heap, v).ok())
                .map(|xs| {
                    let n = xs.len() as u64;
                    (n * n) / 16 + 1
                })
                .unwrap_or(1)
        },
        |heap, args| {
            let xs = float_array(heap, &args[0])?.to_vec();
            let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
            let out: Vec<f64> = xs.iter().map(|x| (x - mean) * (x - mean)).collect();
            Ok(Value::Ref(heap.alloc_array_from(ArrayData::Float(out))))
        },
    );
    register_stage(&mut b, "stage_classify_det", 60, |xs| {
        xs.iter().map(|x| if *x > 0.01 { 1.0 } else { 0.0 }).collect()
    });
    register_stage(&mut b, "stage_report", 4, |xs| {
        let bins = 64usize;
        let chunk = xs.len().div_ceil(bins).max(1);
        xs.chunks(chunk).map(|c| c.iter().sum::<f64>()).take(bins).collect()
    });
    b.register_native("deliver_result", 64, |heap, args| {
        let r = args[0].as_ref("deliver_result report")?;
        let _ = heap.array_len(r)?;
        Ok(Value::Null)
    });
    b
}

/// Allocates one bursty signal: `active` bursts carry many
/// above-threshold samples, quiet ones almost none.
///
/// # Errors
///
/// Propagates heap errors.
pub fn make_bursty_signal(
    program: &Program,
    ctx: &mut ExecCtx,
    seq: u64,
    seed: u64,
    active: bool,
) -> Result<Vec<Value>, IrError> {
    let classes = &program.classes;
    let class = classes.id("SensorData").expect("SensorData");
    let decl = classes.decl(class);
    let mut rng = StdRng::seed_from_u64(seed ^ seq.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let amplitude = if active { 1.6 } else { 0.3 };
    let samples: Vec<f64> = (0..SIGNAL_LEN)
        .map(|i| amplitude * (i as f64 * 0.11).sin() + 0.1 * rng.random_range(-1.0..1.0))
        .collect();
    let obj = ctx.heap.alloc_object(classes, class);
    let arr = ctx.heap.alloc_array_from(ArrayData::Float(samples));
    ctx.heap.set_field(obj, decl.field("count").expect("count"), Value::Int(SIGNAL_LEN as i64))?;
    ctx.heap.set_field(obj, decl.field("samples").expect("samples"), Value::Ref(arr))?;
    Ok(vec![Value::Ref(obj)])
}

/// Pre-generates the burst schedule: phases of `U[5, 15]` messages
/// alternating quiet/active, with roughly `quiet_fraction` of messages
/// quiet.
pub fn burst_schedule(messages: usize, quiet_fraction: f64, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(messages);
    let mut quiet = true;
    while out.len() < messages {
        let phase = rng.random_range(10..=30usize);
        // Bias phase lengths so the long-run quiet share matches.
        let scaled = if quiet {
            ((phase as f64) * 2.0 * quiet_fraction).round().max(1.0) as usize
        } else {
            ((phase as f64) * 2.0 * (1.0 - quiet_fraction)).round().max(1.0) as usize
        };
        for _ in 0..scaled.min(messages - out.len()) {
            out.push(!quiet); // true = active
        }
        quiet = !quiet;
    }
    out
}

/// Runs the complexity-extension experiment for one version.
///
/// # Errors
///
/// Propagates analysis/runtime errors.
pub fn run_complexity_experiment(
    version: SensorVersion,
    messages: usize,
    quiet_fraction: f64,
    seed: u64,
) -> Result<SensorRunStats, IrError> {
    let program = complexity_program()?;
    let producer = Host::new("producer", PC_SPEED);
    let consumer = Host::new("consumer", PC_SPEED);
    let trigger = match version {
        SensorVersion::MethodPartitioning => TriggerPolicy::Rate(1),
        _ => TriggerPolicy::Never,
    };
    let config = SimConfig::new(producer, Link::fast_ethernet(), consumer, trigger)
        .with_serialize_cost(SERIALIZE_WORK_PER_BYTE);

    let mut session = match version {
        SensorVersion::MethodPartitioning => SimSession::adaptive(
            Arc::clone(&program),
            "track",
            sensor_cost_model(),
            complexity_builtins(),
            complexity_builtins(),
            config,
        )?,
        fixed => {
            let probe =
                PartitionedHandler::analyze(Arc::clone(&program), "track", sensor_cost_model())?;
            let plan = complexity_fixed_plan(fixed, &probe);
            SimSession::fixed(
                Arc::clone(&program),
                "track",
                sensor_cost_model(),
                &plan,
                complexity_builtins(),
                complexity_builtins(),
                config,
            )?
        }
    };

    let schedule = burst_schedule(messages, quiet_fraction, seed);
    for (i, &active) in schedule.iter().enumerate() {
        let program_ref = Arc::clone(&program);
        session
            .deliver(move |ctx| make_bursty_signal(&program_ref, ctx, i as u64, seed, active))?;
    }
    let total_bytes: usize = session.reports().iter().map(|r| r.wire_bytes).sum();
    Ok(SensorRunStats {
        avg_ms: session.avg_processing_ms(),
        plan_installs: session.plan_installs(),
        avg_wire_bytes: total_bytes as f64 / messages.max(1) as f64,
    })
}

fn complexity_fixed_plan(version: SensorVersion, handler: &PartitionedHandler) -> Vec<PseId> {
    let mut plan = side_branch_pses(handler);
    match version {
        SensorVersion::Consumer => return vec![earliest_processing_pse(handler)],
        SensorVersion::Producer => plan.push(pse_after_call(handler, "stage_report")),
        // Stage-count midpoint of the 6 stages: after stage_refine.
        SensorVersion::Divided => plan.push(pse_after_call(handler, "stage_refine")),
        SensorVersion::MethodPartitioning => panic!("adaptive version has no fixed plan"),
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_has_a_dense_pse_ladder() {
        let program = sensor_program().unwrap();
        let h = PartitionedHandler::analyze(Arc::clone(&program), "process", sensor_cost_model())
            .unwrap();
        // Entry + 13 chain edges (after the field load and each of the 12
        // stages) at minimum; the paper reports 21 for its handler.
        assert!(h.analysis().pses().len() >= 14, "PSE ladder: {}", h.analysis().pses().len());
    }

    #[test]
    fn full_pipeline_runs_and_delivers() {
        let program = sensor_program().unwrap();
        let mut full = ExecCtx::with_builtins(&program, consumer_builtins());
        let interp = mpart_ir::interp::Interp::new(&program);
        let args = make_signal(&program, &mut full, 0, 9).unwrap();
        let out = interp.run(&mut full, "process", args).unwrap();
        assert_eq!(out, Some(Value::Int(1)));
        assert_eq!(full.trace.len(), 1, "deliver_result ran once");
        // Non-sensor events are filtered.
        let out2 = interp.run(&mut full, "process", vec![Value::Int(4)]).unwrap();
        assert_eq!(out2, Some(Value::Int(0)));
    }

    #[test]
    fn fixed_plans_are_valid_cuts() {
        let program = sensor_program().unwrap();
        let h = PartitionedHandler::analyze(Arc::clone(&program), "process", sensor_cost_model())
            .unwrap();
        for version in [SensorVersion::Consumer, SensorVersion::Producer, SensorVersion::Divided] {
            let plan = fixed_plan(version, &h);
            h.plan().install(&plan);
            h.plan().validate_cut(h.analysis()).unwrap();
        }
    }

    #[test]
    fn consumer_splits_right_after_the_type_check() {
        // The processing path's first candidate: (0,1), for both programs.
        for (program, func) in [(sensor_program(), "process"), (complexity_program(), "track")] {
            let h =
                PartitionedHandler::analyze(program.unwrap(), func, sensor_cost_model()).unwrap();
            let consumer = earliest_processing_pse(&h);
            assert_eq!(h.analysis().pses()[consumer].edge, mpart_analysis::Edge::new(0, 1));
        }
    }

    #[test]
    fn unloaded_ordering_matches_table4_row0() {
        let setup = SensorSetup::intel_cluster(60, 11);
        let consumer = run_sensor_experiment(SensorVersion::Consumer, &setup).unwrap();
        let producer = run_sensor_experiment(SensorVersion::Producer, &setup).unwrap();
        let divided = run_sensor_experiment(SensorVersion::Divided, &setup).unwrap();
        let mp = run_sensor_experiment(SensorVersion::MethodPartitioning, &setup).unwrap();
        assert!(
            mp.avg_ms < divided.avg_ms
                && divided.avg_ms < producer.avg_ms
                && producer.avg_ms < consumer.avg_ms,
            "MP {} < Divided {} < Producer {} < Consumer {}",
            mp.avg_ms,
            divided.avg_ms,
            producer.avg_ms,
            consumer.avg_ms
        );
        // Calibration: Consumer Version near the paper's 88.44 ms.
        assert!((consumer.avg_ms - 88.44).abs() < 12.0, "consumer version {} ms", consumer.avg_ms);
    }

    #[test]
    fn consumer_load_barely_hurts_producer_version_and_mp() {
        let mut setup = SensorSetup::intel_cluster(80, 13);
        setup.consumer_load = HostLoad::constant(1.0);
        let producer = run_sensor_experiment(SensorVersion::Producer, &setup).unwrap();
        let consumer = run_sensor_experiment(SensorVersion::Consumer, &setup).unwrap();
        let mp = run_sensor_experiment(SensorVersion::MethodPartitioning, &setup).unwrap();

        let mut free = setup.clone();
        free.consumer_load = HostLoad::free();
        let producer_free = run_sensor_experiment(SensorVersion::Producer, &free).unwrap();
        let consumer_free = run_sensor_experiment(SensorVersion::Consumer, &free).unwrap();
        let mp_free = run_sensor_experiment(SensorVersion::MethodPartitioning, &free).unwrap();

        // Producer version is insensitive to consumer load (Figure 7).
        assert!(producer.avg_ms < producer_free.avg_ms * 1.15);
        // Consumer version degrades hard.
        assert!(consumer.avg_ms > consumer_free.avg_ms * 1.5);
        // MP shifts load away and degrades only mildly.
        assert!(mp.avg_ms < mp_free.avg_ms * 1.5, "MP {} vs free {}", mp.avg_ms, mp_free.avg_ms);
        assert!(mp.avg_ms < consumer.avg_ms);
    }

    #[test]
    fn heterogeneous_hosts_favor_mp_both_directions() {
        for setup in [SensorSetup::pc_to_sun(60, 17), SensorSetup::sun_to_pc(60, 17)] {
            let mut best_manual = f64::INFINITY;
            for version in
                [SensorVersion::Consumer, SensorVersion::Producer, SensorVersion::Divided]
            {
                let stats = run_sensor_experiment(version, &setup).unwrap();
                best_manual = best_manual.min(stats.avg_ms);
            }
            let mp = run_sensor_experiment(SensorVersion::MethodPartitioning, &setup).unwrap();
            assert!(
                mp.avg_ms <= best_manual * 1.05,
                "MP {} vs best manual {}",
                mp.avg_ms,
                best_manual
            );
        }
    }

    #[test]
    fn complexity_pipeline_costs_track_content() {
        let program = complexity_program().unwrap();
        let interp = mpart_ir::interp::Interp::new(&program);
        let mut quiet_ctx = ExecCtx::with_builtins(&program, complexity_builtins());
        let args = make_bursty_signal(&program, &mut quiet_ctx, 0, 3, false).unwrap();
        interp.run(&mut quiet_ctx, "track", args).unwrap();
        let mut active_ctx = ExecCtx::with_builtins(&program, complexity_builtins());
        let args = make_bursty_signal(&program, &mut active_ctx, 0, 3, true).unwrap();
        interp.run(&mut active_ctx, "track", args).unwrap();
        assert!(
            active_ctx.work > quiet_ctx.work * 3,
            "active {} vs quiet {}",
            active_ctx.work,
            quiet_ctx.work
        );
    }

    #[test]
    fn complexity_mp_beats_fixed_versions_on_bursty_traffic() {
        let mut best_fixed = f64::INFINITY;
        for version in [SensorVersion::Consumer, SensorVersion::Producer, SensorVersion::Divided] {
            let stats = run_complexity_experiment(version, 80, 0.5, 23).unwrap();
            best_fixed = best_fixed.min(stats.avg_ms);
        }
        let mp = run_complexity_experiment(SensorVersion::MethodPartitioning, 80, 0.5, 23).unwrap();
        assert!(mp.avg_ms <= best_fixed * 1.02, "MP {} vs best fixed {}", mp.avg_ms, best_fixed);
        assert!(mp.plan_installs >= 2, "MP re-split across bursts");
    }

    #[test]
    fn burst_schedule_is_deterministic_and_mixed() {
        let a = burst_schedule(100, 0.5, 9);
        let b = burst_schedule(100, 0.5, 9);
        assert_eq!(a, b);
        assert!(a.iter().any(|x| *x) && a.iter().any(|x| !*x));
        let mostly_quiet = burst_schedule(400, 0.9, 9);
        let active_count = mostly_quiet.iter().filter(|x| **x).count();
        assert!(active_count < 200, "90% quiet: {active_count} active");
    }

    #[test]
    fn signals_are_deterministic_per_seed() {
        let program = sensor_program().unwrap();
        let mut c1 = ExecCtx::new(&program);
        let mut c2 = ExecCtx::new(&program);
        let a = make_signal(&program, &mut c1, 5, 42).unwrap();
        let b = make_signal(&program, &mut c2, 5, 42).unwrap();
        let da = mpart_ir::marshal::deep_digest_many(&c1.heap, &a).unwrap();
        let db = mpart_ir::marshal::deep_digest_many(&c2.heap, &b).unwrap();
        assert_eq!(da, db);
    }
}
