//! ConvexCut on the target-path DAG against the path-by-path algorithm
//! (`support::path_pses`), on random handlers and on every shipped one.
//!
//! Given the same prices the two agree exactly: that is the reachability
//! argument in `convex.rs`. Their prices differ only where a cost model
//! reads an edge's position. The path algorithm prices an edge again on
//! every path through it; the graph prices it once, at its longest
//! position. Data-size ignores position, and power's CPU term never
//! outweighs its radio term at these sizes, so both still agree with the
//! published algorithm. Exec-time does not: moving an edge's price to its
//! longest position can drop a PSE (the ladder below) or let a different
//! edge of a short path win (random handlers with early exits).

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use method_partitioning::analysis::{analyze, Edge, HandlerAnalysis, PseInfo, StaticCost};
use method_partitioning::apps::{image, inlining, sensor};
use method_partitioning::core::PartitionPlan;
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel, PowerModel};
use method_partitioning::ir::inline::{inlined_program, InlineOptions};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::Program;
use proptest::prelude::*;
use support::Pricing;

/// One handler element: 0 a diamond with unequal arms, 1 an early exit,
/// 2 a counted loop, 3 two nested counted loops, 4 an opaque call, 5 a
/// diamond whose taken arm ends at a native call, else straight-line
/// arithmetic. At most 8 diamonds, so enumeration stays below the cap.
fn random_handler(ops: &[u8]) -> String {
    let (mut body, mut tails, mut diamonds) = (String::new(), String::new(), 0);
    body.push_str("  acc = x\n");
    for (i, op) in ops.iter().enumerate() {
        match op % 7 {
            0 | 5 if diamonds == 8 => body.push_str(&format!("  acc = acc + {i}\n")),
            0 => {
                diamonds += 1;
                body.push_str(&format!(
                    "  if acc > {i} goto d{i}\n  acc = acc + {i}\n  goto j{i}\nd{i}:\n  v{i} = acc * 2\n  acc = v{i} - 1\nj{i}:\n"
                ));
            }
            1 => {
                body.push_str(&format!("  if acc == {i} goto e{i}\n"));
                tails.push_str(&format!("e{i}:\n  y{i} = acc * {i}\n  native out(y{i})\n  return y{i}\n"));
            }
            2 => body.push_str(&format!(
                "  n{i} = 0\nl{i}:\n  if n{i} >= 3 goto x{i}\n  acc = acc + n{i}\n  n{i} = n{i} + 1\n  goto l{i}\nx{i}:\n"
            )),
            3 => body.push_str(&format!(
                "  n{i} = 0\nl{i}:\n  if n{i} >= 3 goto x{i}\n  m{i} = 0\nk{i}:\n  if m{i} >= 2 goto z{i}\n  acc = acc + m{i}\n  m{i} = m{i} + 1\n  goto k{i}\nz{i}:\n  n{i} = n{i} + 1\n  goto l{i}\nx{i}:\n"
            )),
            4 => body.push_str(&format!("  w{i} = call grind(acc)\n  acc = w{i}\n")),
            5 => {
                diamonds += 1;
                body.push_str(&format!(
                    "  if acc < {i} goto d{i}\n  acc = acc + 1\n  goto j{i}\nd{i}:\n  native tick(acc)\nj{i}:\n"
                ));
            }
            _ => body.push_str(&format!("  t{i} = acc - {i}\n  acc = t{i} * 3\n")),
        }
    }
    format!("fn gen(x) {{\n{body}  native out(acc)\n  return acc\n{tails}}}\n")
}

fn models() -> [(&'static str, Arc<dyn CostModel>); 3] {
    [
        ("data-size", Arc::new(DataSizeModel::new())),
        ("power", Arc::new(PowerModel::new())),
        ("exec-time", Arc::new(ExecTimeModel::new())),
    ]
}

fn by_edge(
    pses: &[PseInfo],
) -> BTreeMap<Edge, (&[method_partitioning::ir::instr::Var], &StaticCost)> {
    pses.iter().map(|p| (p.edge, (p.inter.as_slice(), &p.static_cost))).collect()
}

/// The graph's PSEs (edges, INTER sets, static costs) against the path
/// algorithm's: identical under the graph's prices for every model, and
/// under per-path prices for data-size and power. `exec_time_moved` lists
/// the edges whose exec-time price per path differs; `None` skips that
/// comparison.
fn check_against_oracle(
    program: &Program,
    func: &str,
    exec_time_moved: Option<&[Edge]>,
) -> Result<(), String> {
    for (name, model) in models() {
        let ha = analyze(program, func, model.as_ref()).map_err(|e| e.to_string())?;
        let graph = by_edge(ha.pses());
        let longest = support::path_pses(program, &ha, model.as_ref(), Pricing::Longest);
        if graph != by_edge(&longest) {
            return Err(format!("{func} under {name}, same prices:\n {graph:?}\n {longest:?}"));
        }
        let per_path = support::path_pses(program, &ha, model.as_ref(), Pricing::PerPath);
        let per_path = by_edge(&per_path);
        let moved: Vec<Edge> = match (name, exec_time_moved) {
            ("exec-time", None) => continue,
            ("exec-time", Some(moved)) => moved.to_vec(),
            _ => Vec::new(),
        };
        let same_edges = graph.keys().eq(per_path.keys());
        let same_pses = graph.iter().all(|(edge, (inter, cost))| {
            per_path[edge].0 == *inter && (per_path[edge].1 == *cost || moved.contains(edge))
        });
        if !same_edges || !same_pses {
            return Err(format!("{func} under {name}, per path:\n {graph:?}\n {per_path:?}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn graph_pses_match_the_path_oracle(ops in proptest::collection::vec(0u8..7, 0..12)) {
        let src = random_handler(&ops);
        let program = parse_program(&src).expect("generated source parses");
        if let Err(msg) = check_against_oracle(&program, "gen", None) {
            return Err(TestCaseError::fail(format!("{msg}\nin\n{src}")));
        }
    }

    /// `validate_cut` removes the active edges and walks the Unit Graph;
    /// on every mask it says what covering every enumerated path says.
    #[test]
    fn validate_cut_agrees_with_path_coverage(
        ops in proptest::collection::vec(0u8..7, 0..12),
        masks in proptest::collection::vec(any::<u64>(), 8..9),
    ) {
        let src = random_handler(&ops);
        let program = parse_program(&src).expect("generated source parses");
        for (_, model) in models() {
            let ha = analyze(&program, "gen", model.as_ref()).unwrap();
            let n = ha.pses().len();
            prop_assume!(n <= 64);
            let paths = support::target_paths(&ha);
            let plan = PartitionPlan::new(n).unwrap();
            for mask in &masks {
                let active: Vec<usize> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
                plan.install(&active);
                let cut: Vec<Edge> = active.iter().map(|&p| ha.pses()[p].edge).collect();
                prop_assert_eq!(
                    plan.validate_cut(&ha).is_ok(),
                    support::covers(&paths, &cut),
                    "mask {:?} of\n{}", active, src
                );
            }
        }
    }
}

/// A ladder of `diamonds` sequential branches into one native call.
fn ladder(diamonds: usize) -> Program {
    let mut src = String::from("fn churn(x) {\n  t = x\n");
    for i in 0..diamonds {
        let step = i + 1;
        src.push_str(&format!(
            "  b{i} = t - {i}\n  if b{i} == 0 goto skip{i}\n  t = t + {step}\nskip{i}:\n"
        ));
    }
    src.push_str("  native sink(t)\n  return t\n}\n");
    parse_program(&src).unwrap()
}

/// Under exec-time the path algorithm prices one edge at a different
/// position on each path through it, and keeps it if any of those prices
/// wins on its path. The graph prices it once, at its longest position,
/// so a ten-diamond ladder keeps 13 of the path algorithm's 18 PSEs.
#[test]
fn exec_time_ladder_keeps_a_subset_of_the_path_pses() {
    let program = ladder(10);
    let ha = analyze(&program, "churn", &ExecTimeModel::new()).unwrap();
    let oracle = support::path_pses(&program, &ha, &ExecTimeModel::new(), Pricing::PerPath);
    let paths: Vec<Edge> = oracle.iter().map(|p| p.edge).collect();
    assert_eq!((ha.pses().len(), paths.len()), (13, 18));
    assert!(ha.pses().iter().all(|p| paths.contains(&p.edge)));
}

fn ha_of(src: &str, func: &str, model: &dyn CostModel) -> HandlerAnalysis {
    analyze(&parse_program(src).unwrap(), func, model).unwrap()
}

/// Every shipped handler keeps its PSE edges, INTER sets and static costs
/// under all three models, but for one exec-time price: thresholder's
/// `(2,3)`, which the path algorithm priced on the shorter of its two
/// paths (3) and the graph prices at its longest position (6).
#[test]
fn shipped_handlers_keep_their_pses() {
    let inlined =
        inlined_program(&inlining::inlining_program().unwrap(), "work", InlineOptions::default())
            .unwrap();
    let mut handlers: Vec<(Program, &str)> = vec![
        ((*image::image_program().unwrap()).clone(), "push"),
        ((*sensor::sensor_program().unwrap()).clone(), "process"),
        ((*sensor::complexity_program().unwrap()).clone(), "track"),
        ((*inlining::inlining_program().unwrap()).clone(), "work"),
        (inlined, "work"),
    ];
    for (src, func) in [
        (include_str!("../examples/handlers/push.jmpl"), "push"),
        (include_str!("../examples/handlers/rolling_stats.jmpl"), "ingest"),
        (include_str!("../examples/pipeline/handlers/bulk.jmpl"), "store"),
        (include_str!("../examples/pipeline/handlers/dense.jmpl"), "shrink"),
        (include_str!("../examples/pipeline/handlers/small.jmpl"), "tally"),
        (include_str!("../examples/pipeline/handlers/trivial.jmpl"), "bump"),
    ] {
        handlers.push((parse_program(src).unwrap(), func));
    }
    for (program, func) in &handlers {
        check_against_oracle(program, func, Some(&[])).unwrap();
    }

    let thresholder = include_str!("../examples/handlers/thresholder.jmpl");
    let moved = [Edge::new(2, 3)];
    check_against_oracle(&parse_program(thresholder).unwrap(), "watch", Some(&moved)).unwrap();
    let ha = ha_of(thresholder, "watch", &ExecTimeModel::new());
    let moved = &ha.pses()[ha.pse_for_edge(Edge::new(2, 3)).unwrap()].static_cost;
    assert!(matches!(moved, StaticCost::LowerBounded { det: 6, .. }), "{moved:?}");
}
