//! Test support: ConvexCut as the paper states it — enumerate every
//! TargetPath, run `MinCostEdgeSet` on each — kept as the oracle for the
//! graph form the analysis runs. Enumeration is exponential in sequential
//! branches, so callers stay below [`MAX_PATHS`].

#![allow(dead_code)]

use method_partitioning::analysis::cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
use method_partitioning::analysis::{Edge, HandlerAnalysis, PseInfo};
use method_partitioning::ir::instr::Pc;
use method_partitioning::ir::Program;

/// The most paths [`target_paths`] will list before it panics.
pub const MAX_PATHS: usize = 4096;

/// Every target path of `ha` — a simple path from the start node to the
/// first stop node or exit — as its node sequence, in depth-first order.
///
/// # Panics
///
/// Above [`MAX_PATHS`] paths.
pub fn target_paths(ha: &HandlerAnalysis) -> Vec<Vec<Pc>> {
    fn dfs(ha: &HandlerAnalysis, node: Pc, cur: &mut Vec<Pc>, out: &mut Vec<Vec<Pc>>) {
        assert!(out.len() < MAX_PATHS, "more than {MAX_PATHS} target paths");
        cur.push(node);
        if ha.stops.is_stop(node) || ha.ug.succs(node).is_empty() {
            out.push(cur.clone());
        } else {
            for &s in ha.ug.succs(node) {
                if !cur.contains(&s) {
                    dfs(ha, s, cur, out);
                }
            }
        }
        cur.pop();
    }
    let mut out = Vec::new();
    dfs(ha, ha.ug.start(), &mut Vec::new(), &mut out);
    out
}

/// The candidate edges of a path: the synthetic entry edge followed by
/// every consecutive pair.
pub fn path_edges(path: &[Pc]) -> Vec<Edge> {
    let entry = Edge::entry(path[0]);
    std::iter::once(entry).chain(path.windows(2).map(|w| Edge::new(w[0], w[1]))).collect()
}

/// Whether every path crosses an edge of `cut`.
pub fn covers(paths: &[Vec<Pc>], cut: &[Edge]) -> bool {
    paths.iter().all(|p| path_edges(p).iter().any(|e| cut.contains(e)))
}

/// Where [`path_pses`] prices an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Again on every path, at its position on that path — the algorithm
    /// as published.
    PerPath,
    /// Once, at its longest position ([`EdgePos`] on the DAG) — the
    /// prices the graph form uses.
    Longest,
}

/// The PSEs the path-by-path algorithm finds for `ha`'s handler, in
/// discovery order: each edge of each path priced per `pricing`,
/// `MinCostEdgeSet` per path (keeping the earliest of a determinably-equal
/// pair), a PSE's cost taken from the first path that selects it, and the
/// entry edge reinstated last if every path pruned it.
pub fn path_pses(
    program: &Program,
    ha: &HandlerAnalysis,
    estimator: &dyn EdgeCostEstimator,
    pricing: Pricing,
) -> Vec<PseInfo> {
    let func = program.function(&ha.func_name).expect("analyzed function");
    let cx = EstimatorCx { func, kinds: &ha.kinds, aliases: &ha.aliases };
    let dag = ha.dag();
    let position = |edge: Edge, path: &[Pc], idx: usize| match pricing {
        Pricing::PerPath => EdgePos { before: idx as u64, after: (path.len() - idx) as u64 },
        Pricing::Longest => dag.position(edge),
    };
    let paths = target_paths(ha);
    let mut pses: Vec<PseInfo> = Vec::new();
    for path in &paths {
        let priced: Vec<PseInfo> = path_edges(path)
            .into_iter()
            .enumerate()
            .map(|(idx, edge)| {
                let inter = ha.liveness.inter(func, edge);
                let static_cost = if ha.cut.infinite_edges.contains(&edge) {
                    StaticCost::Infinite
                } else {
                    let pos = position(edge, path, idx);
                    canonical(estimator.edge_cost(&cx, pos, edge, &inter), &cx)
                };
                PseInfo { edge, inter, static_cost }
            })
            .collect();
        let mut keep: Vec<usize> = Vec::new();
        for (i, e) in priced.iter().enumerate() {
            let c = &e.static_cost;
            let dominated = matches!(c, StaticCost::Infinite)
                || priced.iter().any(|o| c.determinably_greater(&o.static_cost))
                || keep.iter().any(|&k| priced[k].static_cost.determinably_equal(c));
            if !dominated {
                keep.push(i);
            }
        }
        for i in keep {
            if pses.iter().all(|p| p.edge != priced[i].edge) {
                pses.push(priced[i].clone());
            }
        }
    }
    if let Some(first) = paths.first().filter(|_| pses.iter().all(|p| !p.edge.is_entry())) {
        let edge = Edge::entry(ha.ug.start());
        let inter = ha.liveness.inter(func, edge);
        let pos = position(edge, first, 0);
        let static_cost = estimator.edge_cost(&cx, pos, edge, &inter);
        pses.push(PseInfo { edge, inter, static_cost });
    }
    pses
}

fn canonical(cost: StaticCost, cx: &EstimatorCx<'_>) -> StaticCost {
    match cost {
        StaticCost::LowerBounded { det, vars } => {
            StaticCost::LowerBounded { det, vars: cx.aliases.canon_set(&vars) }
        }
        other => other,
    }
}
