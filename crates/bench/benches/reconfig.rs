//! Criterion microbenches for the Reconfiguration Unit: static analysis,
//! min-cut plan selection, and profiling-statistics updates.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mpart::profile::{ModMessageProfile, ProfilingUnit, PseSample};
use mpart::reconfig::select_active_set;
use mpart_analysis::analyze;
use mpart_apps::sensor::{sensor_cost_model, sensor_program};

fn bench_reconfig(c: &mut Criterion) {
    let program = sensor_program().expect("program");
    let handler =
        mpart::PartitionedHandler::analyze(Arc::clone(&program), "process", sensor_cost_model())
            .expect("analysis");
    let analysis = handler.analysis();
    let weights = handler.static_weights();

    let mut group = c.benchmark_group("reconfig");
    group.bench_function("static_analysis_sensor_handler", |b| {
        b.iter(|| {
            analyze(black_box(&program), "process", &mpart_cost::ExecTimeModel::new()).unwrap()
        })
    });
    group.bench_function("min_cut_select_16_pses", |b| {
        b.iter(|| select_active_set(black_box(analysis), black_box(&weights)).unwrap())
    });
    group.bench_function("profiling_record_mod", |b| {
        let mut unit = ProfilingUnit::new(analysis.pses().len(), 0.5);
        let samples: Vec<PseSample> = (0..analysis.pses().len())
            .map(|i| PseSample {
                pse: i,
                mod_work: (i as u64) * 1000,
                payload_bytes: Some(4096),
                was_split: i == 7,
            })
            .collect();
        b.iter(|| {
            unit.record_mod(ModMessageProfile {
                samples: samples.clone(),
                split: 7,
                mod_work: 30_000,
                t_mod: Some(0.04),
            });
            black_box(unit.snapshot())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reconfig);
criterion_main!(benches);
