//! The `ConvexCut` algorithm (paper Figure 3): identifies Potential Split
//! Edges.
//!
//! ```text
//! Algorithm ConvexCut
//! 1. MarkStopNodes(ug)
//! 2. foreach Edge(out, in) in the ddg do
//! 3.   foreach path p in ug that starts from in and ends at out do
//! 4.     Mark each edge in p with infinite cost
//! 5. PSESet = null
//! 6. foreach TargetPath p do
//! 7.   PSESet += MinCostEdgeSet(p)
//! ```
//!
//! The infinite marking guarantees *convex* partitions: cutting an edge on
//! a use→def control path would let data defined on the demodulator side
//! flow back to a modulator-side use on a later loop iteration.
//!
//! Steps 6-7 run on the [`TargetDag`] instead of a path list. Each edge has
//! one price, at its [`EdgePos`](crate::cost::EdgePos), and
//! `MinCostEdgeSet(p)` keeps an edge of `p` unless another edge of `p` is
//! determinably cheaper, or determinably equal and earlier (the paper
//! removes one of an identical pair "arbitrarily"; we keep the earliest).
//! So an edge `e` is a PSE iff some target path through it passes both
//! tests, which splits at `e` into two reachability questions:
//!
//! * the start node reaches `e.from` over edges (the entry edge included)
//!   neither determinably cheaper than `e` nor determinably equal to it;
//! * `e.to` reaches a terminal over edges not determinably cheaper than `e`.
//!
//! That is two walks per edge, O(E·(V+E)) at any handler size.

use std::collections::HashSet;

use mpart_ir::func::Function;
use mpart_ir::instr::Var;

use crate::cost::{EdgeCostEstimator, EstimatorCx, StaticCost};
use crate::dag::TargetDag;
use crate::ddg::Ddg;
use crate::liveness::Liveness;
use crate::ug::{Edge, UnitGraph};

/// A Potential Split Edge with its statically-computed metadata.
#[derive(Debug, Clone)]
pub struct PseInfo {
    /// The Unit Graph edge.
    pub edge: Edge,
    /// `INTER(edge)` — live variables a continuation must carry, sorted.
    pub inter: Vec<Var>,
    /// Static cost under the analysis' cost model, at the edge's longest
    /// position on the target paths (runtime profiling refines it).
    pub static_cost: StaticCost,
}

/// Output of the convex-cut analysis.
#[derive(Debug, Clone)]
pub struct ConvexCut {
    /// The PSE set, sorted by edge (the entry edge last).
    pub pses: Vec<PseInfo>,
    /// Edges priced at infinity by the convexity rule.
    pub infinite_edges: HashSet<Edge>,
}

impl ConvexCut {
    /// Runs the algorithm over precomputed analyses.
    pub fn run(
        func: &Function,
        ug: &UnitGraph,
        dag: &TargetDag,
        liveness: &Liveness,
        ddg: &Ddg,
        cx: &EstimatorCx<'_>,
        estimator: &dyn EdgeCostEstimator,
    ) -> Self {
        // Step 2-4: price convexity-violating edges at infinity.
        let mut infinite_edges: HashSet<Edge> = HashSet::new();
        for dep in ddg.backward_candidates(ug) {
            // Every UG edge on a path use -> def: from reachable from the
            // use, and the def reachable from to.
            let from_use = ug.reachable_from(dep.uses);
            let to_def = ug.reaches(dep.def);
            for e in ug.edges() {
                if from_use.contains(e.from) && to_def.contains(e.to) {
                    infinite_edges.insert(e);
                }
            }
        }

        // Steps 6-7: one price per target-path edge, then the two walks.
        let priced: Vec<PseInfo> = dag
            .edges()
            .into_iter()
            .map(|edge| {
                let inter = liveness.inter(func, edge);
                let static_cost = if infinite_edges.contains(&edge) {
                    StaticCost::Infinite
                } else {
                    canonicalize(estimator.edge_cost(cx, dag.position(edge), edge, &inter), cx)
                };
                PseInfo { edge, inter, static_cost }
            })
            .collect();
        // `dag.edges()` is sorted, so `priced` is too.
        let cost = |e: Edge| {
            priced.binary_search_by_key(&e, |p| p.edge).ok().map(|i| &priced[i].static_cost)
        };
        let entry = Edge::entry(dag.start());
        let pses: Vec<PseInfo> = priced
            .iter()
            .filter(|pse| {
                let c = &pse.static_cost;
                if matches!(c, StaticCost::Infinite) {
                    return false;
                }
                let prefix_ok = |e: Edge| {
                    cost(e).is_some_and(|o| !c.determinably_greater(o) && !o.determinably_equal(c))
                };
                let suffix_ok = |e: Edge| cost(e).is_some_and(|o| !c.determinably_greater(o));
                let reached = pse.edge.is_entry()
                    || (prefix_ok(entry)
                        && dag.reaches(dag.start(), prefix_ok, |n| n == pse.edge.from));
                reached && dag.reaches(pse.edge.to, suffix_ok, |n| dag.is_terminal(n))
            })
            .cloned()
            .collect();
        ConvexCut { pses, infinite_edges }
    }
}

/// Re-expresses a lower bound's unknown variables through the alias
/// classes, so renamed copies of one object compare equal.
pub(crate) fn canonicalize(cost: StaticCost, cx: &EstimatorCx<'_>) -> StaticCost {
    match cost {
        StaticCost::LowerBounded { det, vars } => {
            StaticCost::LowerBounded { det, vars: cx.aliases.canon_set(&vars) }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::InterCountEstimator;
    use crate::points_to::AliasClasses;
    use crate::reaching::ReachingDefs;
    use crate::stop::StopNodes;
    use crate::varkinds::VarKinds;
    use mpart_ir::parse::parse_program;

    fn run(src: &str) -> (mpart_ir::Program, ConvexCut, TargetDag) {
        let p = parse_program(src).unwrap();
        let f = p.function("f").unwrap();
        let ug = UnitGraph::build(f);
        let stops = StopNodes::mark(f);
        let live = Liveness::compute(f, &ug);
        let rd = ReachingDefs::compute(f, &ug);
        let ddg = Ddg::build(f, &ug, &rd);
        let dag = TargetDag::build(&ug, &stops);
        let kinds = VarKinds::compute(f);
        let aliases = AliasClasses::compute(f);
        let cx = EstimatorCx { func: f, kinds: &kinds, aliases: &aliases };
        let cut = ConvexCut::run(f, &ug, &dag, &live, &ddg, &cx, &InterCountEstimator);
        (p, cut, dag)
    }

    #[test]
    fn every_path_gets_at_least_one_pse() {
        let src = r#"
            class ImageData { width: int, buff: ref }
            fn f(event) {
                z0 = event instanceof ImageData
                if z0 == 0 goto skip
                r2 = (ImageData) event
                r4 = call resize(r2, 100, 100)
                native display_image(r4)
                return
            skip:
                return
            }
        "#;
        let (_, cut, dag) = run(src);
        // Without its PSE edges, the DAG leaves no target path intact.
        let pse = |e: Edge| cut.pses.iter().any(|p| p.edge == e);
        assert!(pse(Edge::entry(0)) || !dag.reaches(0, |e| !pse(e), |n| dag.is_terminal(n)));
        assert!(!cut.pses.is_empty());
    }

    #[test]
    fn loop_interior_edges_are_infinite() {
        let src = r#"
            fn f(n) {
                i = 0
            head:
                if i >= n goto done
                i = i + 1
                goto head
            done:
                return i
            }
        "#;
        let (_, cut, _) = run(src);
        // The loop body edges (1->2), (2->3), (3->1) carry the loop-carried
        // dependency i@2 -> i@1 and must be infinite.
        assert!(cut.infinite_edges.contains(&Edge::new(1, 2)));
        assert!(cut.infinite_edges.contains(&Edge::new(2, 3)));
        assert!(cut.infinite_edges.contains(&Edge::new(3, 1)));
        // No selected PSE may be an infinite edge.
        for pse in &cut.pses {
            assert!(!cut.infinite_edges.contains(&pse.edge), "{:?}", pse.edge);
        }
        // The entry edge remains a valid cut for the loop path.
        assert!(cut.pses.iter().any(|p| p.edge.is_entry()));
    }

    #[test]
    fn min_set_excludes_dominated_edges() {
        // a dies immediately; the edge after its last use carries fewer
        // variables and must win under the inter-count estimator.
        let src = r#"
            fn f(x, y) {
                a = x + y
                b = a * 2
                return b
            }
        "#;
        let (_, cut, _) = run(src);
        // Path edges: entry{x,y}=2, (0,1){a}=1, (1,2){b}=1.
        // entry is dominated; (0,1) kept; (1,2) has equal cost but distinct
        // vars under InterCountEstimator (Known(1) == Known(1)) -> deduped.
        assert_eq!(cut.pses.len(), 1);
        assert_eq!(cut.pses[0].edge, Edge::new(0, 1));
    }

    #[test]
    fn entry_edge_survives_for_trivial_handler() {
        let src = "fn f(x) {\n  native consume(x)\n  return\n}\n";
        let (_, cut, _) = run(src);
        // Path: [0]; edges: entry only (native node is terminal).
        assert_eq!(cut.pses.len(), 1);
        assert!(cut.pses[0].edge.is_entry());
    }

    #[test]
    fn inter_sets_recorded_sorted() {
        let src = "fn f(x, y) {\n  a = x + y\n  b = a + x\n  return b\n}\n";
        let (p, cut, _) = run(src);
        let f = p.function("f").unwrap();
        for pse in &cut.pses {
            let mut sorted = pse.inter.clone();
            sorted.sort();
            assert_eq!(sorted, pse.inter);
            for v in &pse.inter {
                assert!(v.index() < f.locals);
            }
        }
    }
}
