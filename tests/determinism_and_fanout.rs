//! Simulation determinism and multi-subscriber fan-out.

use std::sync::Arc;

use method_partitioning::apps::image::{run_image_experiment, ImageScenario, ImageVersion};
use method_partitioning::apps::sensor::{
    run_sensor_experiment, HostLoad, SensorSetup, SensorVersion,
};
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel};
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::{IrError, Value};
use method_partitioning::jecho::{SimConfig, SimSession};
use method_partitioning::simnet::{Host, Link, SimTime};

#[test]
fn identical_seeds_identical_results() {
    let a = run_image_experiment(ImageVersion::MethodPartitioning, ImageScenario::Mixed, 60, 5)
        .unwrap();
    let b = run_image_experiment(ImageVersion::MethodPartitioning, ImageScenario::Mixed, 60, 5)
        .unwrap();
    assert_eq!(a.fps, b.fps);
    assert_eq!(a.avg_wire_bytes, b.avg_wire_bytes);
    assert_eq!(a.plan_installs, b.plan_installs);
}

#[test]
fn different_seeds_differ_under_mixed_traffic() {
    let a = run_image_experiment(ImageVersion::MethodPartitioning, ImageScenario::Mixed, 60, 5)
        .unwrap();
    let b = run_image_experiment(ImageVersion::MethodPartitioning, ImageScenario::Mixed, 60, 6)
        .unwrap();
    assert_ne!(a.fps, b.fps);
}

#[test]
fn sensor_runs_are_reproducible_under_load() {
    let mut setup = SensorSetup::intel_cluster(30, 9);
    setup.consumer_load = HostLoad { aprob: 0.5, plen_ms: 400.0, lindex: 0.9 };
    let a = run_sensor_experiment(SensorVersion::MethodPartitioning, &setup).unwrap();
    let b = run_sensor_experiment(SensorVersion::MethodPartitioning, &setup).unwrap();
    assert_eq!(a.avg_ms, b.avg_ms);
    assert_eq!(a.plan_installs, b.plan_installs);
}

const FANOUT_SRC: &str = r#"
class Sample { n: int, data: ref }

fn shrink(s) {
    out = new Sample
    out.n = 16
    d = new byte[16]
    out.data = d
    return out
}

fn tiny_view(event) {
    ok = event instanceof Sample
    if ok == 0 goto skip
    s = (Sample) event
    t = call shrink(s)
    native view(t)
    return 1
skip:
    return 0
}

fn full_archive(event) {
    ok = event instanceof Sample
    if ok == 0 goto skip
    s = (Sample) event
    native archive(s)
    return 2
skip:
    return 0
}
"#;

fn sample_builder(
    program: &Arc<mpart_ir::Program>,
    n: usize,
) -> impl FnMut(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
    let classes = &program.classes;
    move |ctx| {
        let class = classes.id("Sample").unwrap();
        let decl = classes.decl(class);
        let s = ctx.heap.alloc_object(classes, class);
        let d = ctx.heap.alloc_array(ElemType::Byte, n);
        ctx.heap.set_field(s, decl.field("n").unwrap(), Value::Int(n as i64))?;
        ctx.heap.set_field(s, decl.field("data").unwrap(), Value::Ref(d))?;
        Ok(vec![Value::Ref(s)])
    }
}

/// One source, two receivers with *different handlers and cost models* —
/// Figure 1's fan-out, one session per subscriber. Each subscriber's
/// modulator adapts independently.
#[test]
fn fanout_subscribers_adapt_independently() {
    let program = Arc::new(parse_program(FANOUT_SRC).unwrap());
    let subscribe = |handler_fn: &str, model: Arc<dyn CostModel>, native: &str| {
        let mut receiver_builtins = BuiltinRegistry::new();
        receiver_builtins.register_native(native, 1, |_, _| Ok(Value::Null));
        let config = SimConfig::new(
            Host::new("source", 1_000_000.0),
            Link::new("lan", SimTime::from_millis(1), 1_000_000.0),
            Host::new("subscriber", 1_000_000.0),
            TriggerPolicy::Rate(1),
        );
        SimSession::adaptive(
            Arc::clone(&program),
            handler_fn,
            model,
            BuiltinRegistry::new(),
            receiver_builtins,
            config,
        )
        .unwrap()
    };
    let mut viewer = subscribe("tiny_view", Arc::new(DataSizeModel::new()), "view");
    let mut archiver = subscribe("full_archive", Arc::new(ExecTimeModel::new()), "archive");

    for _ in 0..8 {
        let view = viewer.deliver(sample_builder(&program, 40_000)).unwrap();
        let archive = archiver.deliver(sample_builder(&program, 40_000)).unwrap();
        assert_eq!(view.ret, Some(Value::Int(1)));
        assert_eq!(archive.ret, Some(Value::Int(2)));
    }

    // The viewer adapted to shrink at the sender (tiny payload); the
    // archiver necessarily ships the full sample (its handler keeps it).
    let view = viewer.deliver(sample_builder(&program, 40_000)).unwrap();
    let archive = archiver.deliver(sample_builder(&program, 40_000)).unwrap();
    assert!(view.wire_bytes < 1000, "viewer payload {}", view.wire_bytes);
    assert!(archive.wire_bytes > 40_000, "archiver payload {}", archive.wire_bytes);
    // Plans are independent objects (the wire-byte contrast above already
    // shows they diverged semantically; raw index lists may coincide since
    // each handler has its own PSE table).
    // Both receivers saw every event.
    assert_eq!(viewer.receiver_ctx().trace.len(), 9);
    assert_eq!(archiver.receiver_ctx().trace.len(), 9);
}
