//! The execution-time cost model (§4.2): minimize average message
//! processing time.
//!
//! Under the paper's assumptions (communication overlapped with
//! computation, the application not communication-bound), total program
//! time is dominated by `n · max(T_mod(1), T_demod(1))` — so the best
//! split *balances* per-unit processing between sender and receiver.
//!
//! "Static analysis assigns an edge cost that simply depends on the
//! differences in the edge's distances (in terms of number of
//! instructions) from the start of a path and to the end of the path":
//! we price edge `e` at `max(prefix(e), suffix(e))` in instruction counts,
//! so the statically-balanced midpoint wins. Both distances are the
//! longest over the target paths through `e` (its [`EdgePos`]): one
//! price per edge, however many paths share it. Runtime profiling then
//! replaces instruction counts with measured per-message work
//! (`T_mod` at the modulator, `T_demod` at the demodulator) scaled by each
//! host's current effective speed.

use mpart_analysis::cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
use mpart_analysis::ug::Edge;
use mpart_ir::heap::Heap;
use mpart_ir::instr::Var;
use mpart_ir::marshal::calculated_size;
use mpart_ir::types::ClassTable;
use mpart_ir::Value;

use crate::{CostModel, RuntimeCostKind};

/// Cost model that balances processing load between sender and receiver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTimeModel;

impl ExecTimeModel {
    /// Creates the model.
    pub fn new() -> Self {
        ExecTimeModel
    }

    /// The §4.2 plan cost given profiled per-unit times:
    /// `max(t_mod, t_demod)` (the `n·max(...)` dominant term with `n`
    /// factored out, as the paper's simplified implementation does).
    pub fn combine(t_mod: f64, t_demod: f64) -> f64 {
        t_mod.max(t_demod)
    }

    /// The minimum message size `σ` satisfying inequality (4):
    /// `σ > α / (max(T_mod, T_demod) − β)`. Returns `None` when the
    /// denominator is non-positive (the application would be
    /// communication-bound, violating assumption (2)).
    pub fn min_sigma(alpha: f64, beta: f64, t_mod: f64, t_demod: f64) -> Option<f64> {
        let denom = Self::combine(t_mod, t_demod) - beta;
        (denom > 0.0).then(|| alpha / denom)
    }
}

impl EdgeCostEstimator for ExecTimeModel {
    fn edge_cost(
        &self,
        cx: &EstimatorCx<'_>,
        pos: EdgePos,
        _edge: Edge,
        inter: &[Var],
    ) -> StaticCost {
        // The edge leaves `pos.before` instructions on the modulator side
        // and `pos.after` on the demodulator side. The instruction-
        // distance estimate orders edges for the *initial* plan, but true
        // execution times of the opaque invocations are runtime-only, so
        // every edge stays a lower-bounded candidate (this is how the
        // paper's sensor handler retains 21 PSEs "almost all along the
        // same path" for the profiler to choose among). Only edges whose
        // live sets canonicalize identically collapse.
        let (prefix, suffix) = (pos.before, pos.after);
        if inter.is_empty() {
            // Nothing flows across (e.g. a filtered-out path): the time
            // cost of the remaining suffix is fully known — zero-ish.
            return StaticCost::Known(suffix.min(prefix));
        }
        StaticCost::LowerBounded { det: prefix.max(suffix), vars: cx.aliases.canon_set(inter) }
    }
}

impl CostModel for ExecTimeModel {
    fn name(&self) -> &str {
        "exec-time"
    }

    fn kind(&self) -> RuntimeCostKind {
        RuntimeCostKind::ExecTime
    }

    fn measure_payload(&self, heap: &Heap, _classes: &ClassTable, values: &[Value]) -> u64 {
        // The time model also records "the actual data sizes passed across
        // the network (as with the previous cost model)" to validate the
        // σ constraint.
        calculated_size(heap, values).unwrap_or(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_analysis::analyze;

    #[test]
    fn static_cost_minimized_at_midpoint() {
        // A straight-line pipeline of 8 pure steps: the balanced split must
        // be preferred statically.
        let src = r#"
            fn f(x) {
                a = call s1(x)
                b = call s2(a)
                c = call s3(b)
                d = call s4(c)
                e = call s5(d)
                g = call s6(e)
                h = call s7(g)
                native out(h)
                return
            }
        "#;
        let program = mpart_ir::parse::parse_program(src).unwrap();
        let model = ExecTimeModel::new();
        let ha = analyze(&program, "f", &model).unwrap();
        // Every chain edge is retained as a runtime candidate (costs are
        // only lower-bounded statically), and the midpoint carries the
        // smallest deterministic part max(idx, 8-idx) = 4.
        assert!(ha.pses().len() >= 8, "chain edges retained: {}", ha.pses().len());
        let midpoint = ha
            .pses()
            .iter()
            .find(|p| p.edge == mpart_analysis::Edge::new(3, 4))
            .expect("midpoint PSE");
        match &midpoint.static_cost {
            StaticCost::LowerBounded { det, .. } => assert_eq!(*det, 4),
            other => panic!("expected lower bound, got {other:?}"),
        }
        // The deterministic parts are minimized at the midpoint.
        for p in ha.pses() {
            if let StaticCost::LowerBounded { det, .. } = &p.static_cost {
                assert!(*det >= 4, "{:?}", p.edge);
            }
        }
    }

    #[test]
    fn combine_is_max() {
        assert_eq!(ExecTimeModel::combine(3.0, 5.0), 5.0);
        assert_eq!(ExecTimeModel::combine(7.0, 2.0), 7.0);
    }

    #[test]
    fn sigma_constraint() {
        // α=10, β=1, max T = 3 -> σ > 10/2 = 5.
        assert_eq!(ExecTimeModel::min_sigma(10.0, 1.0, 3.0, 2.0), Some(5.0));
        // Communication-bound: β >= max T.
        assert_eq!(ExecTimeModel::min_sigma(10.0, 5.0, 3.0, 2.0), None);
    }

    #[test]
    fn pipeline_of_21_pses_like_sensor_app() {
        // The paper notes one app produced 21 PSEs "almost all along the
        // same path" — check a long pipeline keeps a single balanced PSE
        // statically but all edges are available as path candidates.
        let mut src = String::from("fn f(x) {\n  a0 = call s(x)\n");
        for i in 1..21 {
            src.push_str(&format!("  a{i} = call s(a{})\n", i - 1));
        }
        src.push_str("  native out(a20)\n  return\n}\n");
        let program = mpart_ir::parse::parse_program(&src).unwrap();
        let model = ExecTimeModel::new();
        let ha = analyze(&program, "f", &model).unwrap();
        let dag = ha.dag();
        assert_eq!(dag.path_count(), 1);
        // All 21 inter-stage edges plus the entry edge remain candidates —
        // the paper's "21 PSEs ... almost all along the same path".
        let on_path = ha.pses().iter().filter(|p| dag.edges().contains(&p.edge)).count();
        assert!(on_path >= 21, "got {on_path} PSEs on the pipeline path");
    }
}
