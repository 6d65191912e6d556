//! Composite cost models — §7's closing suggestion ("experiment with
//! composite cost models").
//!
//! A [`CompositeModel`] blends two cost models with fixed weights. The
//! static half combines both estimators' deterministic parts and unions
//! their non-determinable variable sets, so the partial-order exclusion
//! rules of `MinCostEdgeSet` remain sound (a lower bound on `αA + βB` is
//! `α·lb(A) + β·lb(B)`).
//!
//! The runtime half sums the weighted payload measurements; the
//! reconfiguration kind is taken from the *dominant* component.

use std::sync::Arc;

use mpart_analysis::cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
use mpart_analysis::ug::Edge;
use mpart_ir::heap::Heap;
use mpart_ir::instr::Var;
use mpart_ir::types::ClassTable;
use mpart_ir::Value;

use crate::{CostModel, RuntimeCostKind};

/// A weighted blend of two cost models.
pub struct CompositeModel {
    first: Arc<dyn CostModel>,
    second: Arc<dyn CostModel>,
    first_weight: f64,
    second_weight: f64,
    name: String,
}

impl std::fmt::Debug for CompositeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeModel")
            .field("first", &self.first.name())
            .field("second", &self.second.name())
            .field("weights", &(self.first_weight, self.second_weight))
            .finish()
    }
}

impl CompositeModel {
    /// Blends `first` and `second` with the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if both weights are zero or either is negative.
    pub fn new(
        first: Arc<dyn CostModel>,
        first_weight: f64,
        second: Arc<dyn CostModel>,
        second_weight: f64,
    ) -> Self {
        assert!(
            first_weight >= 0.0 && second_weight >= 0.0 && first_weight + second_weight > 0.0,
            "weights must be non-negative and not both zero"
        );
        let name = format!(
            "composite({}*{:.2}+{}*{:.2})",
            first.name(),
            first_weight,
            second.name(),
            second_weight
        );
        CompositeModel { first, second, first_weight, second_weight, name }
    }

    fn scale(&self, which: usize, v: u64) -> u64 {
        let w = if which == 0 { self.first_weight } else { self.second_weight };
        (v as f64 * w).round() as u64
    }
}

impl EdgeCostEstimator for CompositeModel {
    fn edge_cost(
        &self,
        cx: &EstimatorCx<'_>,
        pos: EdgePos,
        edge: Edge,
        inter: &[Var],
    ) -> StaticCost {
        let a = self.first.edge_cost(cx, pos, edge, inter);
        let b = self.second.edge_cost(cx, pos, edge, inter);
        combine(self.scale_cost(0, a), self.scale_cost(1, b), cx)
    }
}

impl CompositeModel {
    fn scale_cost(&self, which: usize, c: StaticCost) -> StaticCost {
        match c {
            StaticCost::Known(k) => StaticCost::Known(self.scale(which, k)),
            StaticCost::LowerBounded { det, vars } => {
                StaticCost::LowerBounded { det: self.scale(which, det), vars }
            }
            StaticCost::Infinite => StaticCost::Infinite,
        }
    }
}

fn combine(a: StaticCost, b: StaticCost, cx: &EstimatorCx<'_>) -> StaticCost {
    use StaticCost::*;
    match (a, b) {
        (Infinite, _) | (_, Infinite) => Infinite,
        (Known(x), Known(y)) => Known(x + y),
        (Known(x), LowerBounded { det, vars }) | (LowerBounded { det, vars }, Known(x)) => {
            LowerBounded { det: det + x, vars }
        }
        (LowerBounded { det: d1, vars: v1 }, LowerBounded { det: d2, vars: v2 }) => {
            let mut vars = v1;
            vars.extend(v2);
            LowerBounded { det: d1 + d2, vars: cx.aliases.canon_set(&vars) }
        }
    }
}

impl CostModel for CompositeModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn cache_key(&self) -> String {
        // The display name rounds weights to two decimals, so composites
        // tuned apart by less than 0.01 — exactly what runtime retuning
        // produces — would alias. Fold the exact bit patterns and the
        // components' own keys instead.
        format!(
            "composite({}*{:016x}+{}*{:016x})",
            self.first.cache_key(),
            self.first_weight.to_bits(),
            self.second.cache_key(),
            self.second_weight.to_bits()
        )
    }

    fn kind(&self) -> RuntimeCostKind {
        if self.first_weight >= self.second_weight {
            self.first.kind()
        } else {
            self.second.kind()
        }
    }

    fn measure_payload(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64 {
        self.scale(0, self.first.measure_payload(heap, classes, values))
            + self.scale(1, self.second.measure_payload(heap, classes, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataSizeModel, ExecTimeModel, PowerModel};
    use mpart_analysis::analyze;
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
        class Frame { n: int, buff: ref }
        fn handle(event) {
            ok = event instanceof Frame
            if ok == 0 goto skip
            f = (Frame) event
            small = call compress(f)
            native show(small)
            return 1
        skip:
            return 0
        }
    "#;

    #[test]
    fn composite_analyzes_like_its_parts() {
        let program = parse_program(SRC).unwrap();
        let model = CompositeModel::new(
            Arc::new(DataSizeModel::new()),
            0.7,
            Arc::new(PowerModel::new()),
            0.3,
        );
        let ha = analyze(&program, "handle", &model).unwrap();
        assert!(!ha.pses().is_empty());
        // Every target path crosses a PSE.
        let dag = ha.dag();
        let pse = |e| ha.pse_for_edge(e).is_some();
        assert!(pse(Edge::entry(0)) || !dag.reaches(0, |e| !pse(e), |n| dag.is_terminal(n)));
    }

    #[test]
    fn name_and_kind_reflect_dominant_component() {
        let m = CompositeModel::new(
            Arc::new(DataSizeModel::new()),
            0.2,
            Arc::new(ExecTimeModel::new()),
            0.8,
        );
        assert!(m.name().contains("data-size"));
        assert!(m.name().contains("exec-time"));
        assert_eq!(m.kind(), RuntimeCostKind::ExecTime);
    }

    #[test]
    fn measure_is_weighted_sum() {
        let program = parse_program(SRC).unwrap();
        let mut heap = Heap::new();
        let arr = heap.alloc_array(mpart_ir::types::ElemType::Byte, 100);
        let ds: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
        let base = ds.measure_payload(&heap, &program.classes, &[Value::Ref(arr)]);
        let m = CompositeModel::new(Arc::clone(&ds), 0.5, Arc::new(DataSizeModel::new()), 0.5);
        let blended = m.measure_payload(&heap, &program.classes, &[Value::Ref(arr)]);
        assert_eq!(blended, base, "0.5+0.5 of the same model is the model");
    }

    #[test]
    fn cache_key_distinguishes_weights_the_name_rounds_away() {
        let make = |w1: f64, w2: f64| {
            CompositeModel::new(
                Arc::new(DataSizeModel::new()),
                w1,
                Arc::new(ExecTimeModel::new()),
                w2,
            )
        };
        // Closer than the name's two-decimal rounding can tell apart.
        let a = make(0.500, 0.500);
        let b = make(0.501, 0.499);
        assert_eq!(a.name(), b.name(), "display names collide by design");
        assert_ne!(a.cache_key(), b.cache_key(), "cache keys must not");
        // Identical parameters agree.
        assert_eq!(a.cache_key(), make(0.500, 0.500).cache_key());
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn zero_weights_rejected() {
        CompositeModel::new(
            Arc::new(DataSizeModel::new()),
            0.0,
            Arc::new(ExecTimeModel::new()),
            0.0,
        );
    }
}
