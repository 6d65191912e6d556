//! Property tests over the static-analysis invariants, on randomly
//! generated handler programs (with branches and loops).

mod support;

use std::sync::Arc;

use method_partitioning::analysis::{analyze, HandlerAnalysis};
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::pretty::program_to_string;
use proptest::prelude::*;

/// Builds a random but well-formed handler with `ops` straight-line
/// operations, an optional early-exit branch, and an optional counted
/// loop.
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

fn analyses(src: &str) -> Vec<HandlerAnalysis> {
    let program = Arc::new(parse_program(src).expect("generated source parses"));
    let models: Vec<Arc<dyn CostModel>> =
        vec![Arc::new(DataSizeModel::new()), Arc::new(ExecTimeModel::new())];
    models.iter().map(|m| analyze(&program, "gen", m.as_ref()).expect("analysis")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every target path must offer at least one candidate split edge —
    /// otherwise no valid partition plan exists.
    #[test]
    fn every_path_has_a_candidate(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        for ha in analyses(&random_source(&ops, with_branch, with_loop)) {
            let paths = support::target_paths(&ha);
            prop_assert_eq!(paths.len() as u64, ha.dag().path_count());
            for (i, path) in paths.iter().enumerate() {
                let edges = support::path_edges(path);
                let cands = ha.pses().iter().filter(|p| edges.contains(&p.edge)).count();
                prop_assert!(cands > 0, "path {} of\n{:?}", i, path);
            }
        }
    }

    /// Convexity: no selected PSE lies on a cycle (its head must not be
    /// reachable from its tail), so data never flows backward across a
    /// split.
    #[test]
    fn selected_pses_are_never_inside_loops(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        for ha in analyses(&random_source(&ops, with_branch, with_loop)) {
            for pse in ha.pses() {
                if pse.edge.is_entry() {
                    continue;
                }
                let back_reachable = ha.ug.reachable_from(pse.edge.to).contains(pse.edge.from);
                prop_assert!(
                    !back_reachable,
                    "PSE {} lies on a cycle",
                    pse.edge
                );
            }
        }
    }

    /// Every PSE is a candidate of some target path: on that path, no
    /// other PSE is determinably cheaper (`MinCostEdgeSet` postcondition).
    /// The entry candidate is exempt: it is reinstated even when dominated,
    /// because the runtime needs the always-valid trivial plan as its
    /// degradation fallback.
    #[test]
    fn path_candidates_are_pairwise_minimal(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        for ha in analyses(&random_source(&ops, with_branch, with_loop)) {
            let paths: Vec<_> = support::target_paths(&ha).iter().map(|p| support::path_edges(p)).collect();
            for a in ha.pses() {
                if a.edge.is_entry() { continue; }
                let minimal_on = |edges: &Vec<_>| {
                    edges.contains(&a.edge)
                        && ha.pses().iter().filter(|b| edges.contains(&b.edge)).all(|b| {
                            !a.static_cost.determinably_greater(&b.static_cost)
                        })
                };
                prop_assert!(
                    paths.iter().any(minimal_on),
                    "candidate {:?} dominated on every path through it",
                    a.edge
                );
            }
        }
    }

    /// The INTER set of every PSE is consistent with liveness: exactly the
    /// variables live into the edge's head (intersected with the tail's
    /// live-out set).
    #[test]
    fn pse_inter_sets_match_liveness(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        let src = random_source(&ops, with_branch, with_loop);
        let program = Arc::new(parse_program(&src).unwrap());
        let model = DataSizeModel::new();
        let ha = analyze(&program, "gen", &model).unwrap();
        let func = program.function("gen").unwrap();
        for pse in ha.pses() {
            let expected = ha.liveness.inter(func, pse.edge);
            prop_assert_eq!(&pse.inter, &expected);
        }
    }

    /// Pretty-printing and re-parsing preserves the analysis: same target
    /// paths, same PSE edges.
    #[test]
    fn analysis_survives_print_parse_round_trip(
        ops in proptest::collection::vec(0u8..=4, 0..8),
        with_branch in any::<bool>(),
        with_loop in any::<bool>(),
    ) {
        let src = random_source(&ops, with_branch, with_loop);
        let p1 = Arc::new(parse_program(&src).unwrap());
        let printed = program_to_string(&p1);
        let p2 = Arc::new(parse_program(&printed).expect("printed source re-parses"));
        let model = DataSizeModel::new();
        let a1 = analyze(&p1, "gen", &model).unwrap();
        let a2 = analyze(&p2, "gen", &model).unwrap();
        prop_assert_eq!(a1.dag().edges(), a2.dag().edges(), "printed:\n{}", printed);
        prop_assert_eq!(a1.dag().path_count(), a2.dag().path_count(), "printed:\n{}", printed);
        let e1: Vec<_> = a1.pses().iter().map(|p| p.edge).collect();
        let e2: Vec<_> = a2.pses().iter().map(|p| p.edge).collect();
        prop_assert_eq!(e1, e2, "printed:\n{}", printed);
    }
}
