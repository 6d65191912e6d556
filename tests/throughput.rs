//! Throughput-layer integration: the analysis cache must be *invisible*
//! to correctness — a cache hit returns exactly the analysis a fresh run
//! would compute — and the multi-session manager must share one analysis
//! across sessions while keeping per-session runtime state (plans,
//! epochs, contexts) isolated.

use std::sync::Arc;

use method_partitioning::analysis::{analyze, AnalysisCache, DEFAULT_CACHE_CAPACITY};
use method_partitioning::core::session::{SessionConfig, SessionManager};
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel};
use method_partitioning::ir::interp::BuiltinRegistry;
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::Value;
use method_partitioning::obs::MetricValue;
use proptest::prelude::*;

/// Builds a random but well-formed handler with `ops` straight-line
/// operations, an optional early-exit branch, and an optional counted
/// loop (the same shape the analysis property suite uses).
fn random_source(ops: &[u8], with_branch: bool, with_loop: bool) -> String {
    let mut body = String::new();
    body.push_str("    acc = x\n");
    if with_branch {
        body.push_str("    if x < 0 goto bail\n");
    }
    if with_loop {
        body.push_str(
            "    i = 0\nhead:\n    if i >= 3 goto after\n    acc = acc + i\n    i = i + 1\n    goto head\nafter:\n",
        );
    }
    for (i, op) in ops.iter().enumerate() {
        match op % 5 {
            0 => body.push_str(&format!("    acc = acc + {}\n", i + 1)),
            1 => body.push_str(&format!("    v{i} = acc * 2\n    acc = acc + v{i}\n")),
            2 => body.push_str(&format!("    w{i} = call grind(acc)\n    acc = w{i}\n")),
            3 => body.push_str(&format!("    acc = acc - {i}\n")),
            _ => body.push_str(&format!("    z{i} = acc > {i}\n    acc = acc + z{i}\n")),
        }
    }
    body.push_str("    native out(acc)\n    return acc\n");
    if with_branch {
        body.push_str("bail:\n    return -1\n");
    }
    format!("fn gen(x) {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cache hit is indistinguishable from fresh analysis: same Arc on
    /// the repeat lookup, and identical PSE edges, `INTER(e)` live sets,
    /// and target-path counts compared to an uncached `analyze()`.
    #[test]
    fn cached_analysis_is_identical_to_fresh(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        let src = random_source(&ops, with_branch, with_loop);
        let program = Arc::new(parse_program(&src).unwrap());
        let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
        let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);

        let first = cache
            .get_or_analyze(&program, "gen", model.name(), model.as_ref())
            .unwrap();
        let second = cache
            .get_or_analyze(&program, "gen", model.name(), model.as_ref())
            .unwrap();
        prop_assert!(Arc::ptr_eq(&first, &second), "the hit must share the analysis Arc");
        prop_assert_eq!(cache.misses(), 1);
        prop_assert_eq!(cache.hits(), 1);

        let fresh = analyze(&program, "gen", model.as_ref()).unwrap();
        prop_assert_eq!(fresh.pses().len(), second.pses().len());
        for (a, b) in fresh.pses().iter().zip(second.pses().iter()) {
            prop_assert_eq!(a.edge, b.edge);
            prop_assert_eq!(&a.inter, &b.inter, "INTER(e) must match the fresh analysis");
        }
        prop_assert_eq!(fresh.dag().path_count(), second.dag().path_count());
        prop_assert_eq!(fresh.stops.len(), second.stops.len());

        // A different cost model is a different cache identity.
        let other: Arc<dyn CostModel> = Arc::new(ExecTimeModel::new());
        let third = cache
            .get_or_analyze(&program, "gen", other.name(), other.as_ref())
            .unwrap();
        prop_assert!(!Arc::ptr_eq(&second, &third));
        prop_assert_eq!(cache.misses(), 2);
    }
}

const DOUBLE_SRC: &str = r#"
fn double(x) {
    y = x * 2
    native out(y)
    return y
}
"#;

fn receiver_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_native("out", 1, |_, _| Ok(Value::Null));
    b
}

/// Six sessions over three workers: one analysis miss, five shared hits,
/// the hit gauge visible on the manager's hub, and per-session delivery
/// ordering intact under round-robin interleaving.
#[test]
fn manager_shares_analysis_and_reports_cache_hits() {
    let program = Arc::new(parse_program(DOUBLE_SRC).unwrap());
    let mut manager = SessionManager::new(SessionConfig::default().with_workers(3));
    for _ in 0..6 {
        manager
            .open_session(
                Arc::clone(&program),
                "double",
                Arc::new(DataSizeModel::new()),
                BuiltinRegistry::new(),
                receiver_builtins(),
            )
            .unwrap();
    }
    assert_eq!(manager.cache().misses(), 1, "first session computes the analysis");
    assert_eq!(manager.cache().hits(), 5, "the other five share it");
    assert!(manager.cache().hit_rate() > 0.0);

    for round in 0..3u64 {
        for s in 0..6 {
            let out = manager.deliver(s, move |_| Ok(vec![Value::Int(7)])).unwrap();
            assert_eq!(out.seq, round + 1, "per-session ordering under interleaving");
            assert_eq!(out.ret, Some(Value::Int(14)));
        }
    }

    let snap = manager.obs().registry().snapshot();
    let hits = snap
        .metrics
        .iter()
        .find(|m| m.name == "analysis_cache_hits")
        .expect("cache hit gauge registered on the manager hub");
    match hits.value {
        MetricValue::Gauge(v) => assert!(v >= 5.0, "hit gauge mirrors the cache: {v}"),
        ref other => panic!("analysis_cache_hits should be a gauge, got {other:?}"),
    }
    assert_eq!(manager.shutdown(), 18);
}
