//! The data-size cost model (§4.1): minimize network communication.
//!
//! "This cost model defines costs as proportional to the amount of data
//! sent from the modulator to the demodulator." The cost of a PSE is the
//! size of the unique objects reachable from the `INTER` live-variable set
//! plus duplicated references.
//!
//! Statically, scalar variables have known widths while reference-typed
//! variables are *non-determinable*; the estimator produces
//! [`StaticCost::LowerBounded`] with the canonicalized unknown-variable
//! set, letting `MinCostEdgeSet` apply the paper's two exclusion rules
//! (lower-bound domination, identical-unknown-set comparison).
//!
//! At runtime, the profiling code measures real payload sizes using either
//! the generic heap walk ([`mpart_ir::marshal::calculated_size`]) or the
//! per-class self-describing `sizeOf` fast path (Table 1).

use mpart_analysis::cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
use mpart_analysis::ug::Edge;
use mpart_ir::heap::Heap;
use mpart_ir::instr::Var;
use mpart_ir::marshal::{calculated_size, SelfSizerRegistry, REF_SIZE};
use mpart_ir::types::ClassTable;
use mpart_ir::Value;

use crate::{CostModel, RuntimeCostKind};

/// Cost model that minimizes bytes shipped from sender to receiver.
#[derive(Debug, Clone, Default)]
pub struct DataSizeModel {
    sizers: SelfSizerRegistry,
}

impl DataSizeModel {
    /// Creates the model with no self-describing sizers (generic sizing
    /// only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the model with registered self-describing `sizeOf` methods
    /// for the fast sizing path.
    pub fn with_sizers(sizers: SelfSizerRegistry) -> Self {
        DataSizeModel { sizers }
    }

    /// The registered sizers.
    pub fn sizers(&self) -> &SelfSizerRegistry {
        &self.sizers
    }

    /// Runtime size of a value set: self-describing fast path per root
    /// where available, generic walk otherwise.
    pub fn runtime_size(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64 {
        let mut total = 0u64;
        for v in values {
            total += self.sizers.size_of(heap, classes, v).unwrap_or(0) as u64;
        }
        total
    }
}

impl EdgeCostEstimator for DataSizeModel {
    fn edge_cost(
        &self,
        cx: &EstimatorCx<'_>,
        _pos: EdgePos,
        _edge: Edge,
        inter: &[Var],
    ) -> StaticCost {
        let mut det: u64 = 0;
        let mut unknown: Vec<Var> = Vec::new();
        for &v in inter {
            match cx.kinds.kind(v).known_size() {
                Some(w) => det += w,
                None => {
                    // Sound lower bound: even a null reference ships a
                    // REF_SIZE slot.
                    det += REF_SIZE as u64;
                    unknown.push(v);
                }
            }
        }
        if unknown.is_empty() {
            StaticCost::Known(det)
        } else {
            StaticCost::LowerBounded { det, vars: cx.aliases.canon_set(&unknown) }
        }
    }
}

impl CostModel for DataSizeModel {
    fn name(&self) -> &str {
        "data-size"
    }

    fn kind(&self) -> RuntimeCostKind {
        RuntimeCostKind::DataSize
    }

    fn measure_payload(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64 {
        // Use the generic unique-objects + duplicated-references walk for
        // multi-root payloads (self-describing sizers are per root object
        // and would double-count shared structure).
        if values.len() == 1 {
            self.runtime_size(heap, classes, values)
        } else {
            calculated_size(heap, values).unwrap_or(0) as u64
        }
    }

    fn profiling_work(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64 {
        // Self-describing sizeOf: effectively constant (Table 1's last
        // column). Generic walk: proportional to the reachable graph.
        let self_sized = values.len() == 1
            && matches!(&values[0], Value::Ref(r)
                if heap.class_of(*r).ok().flatten()
                    .is_some_and(|c| self.sizers.contains(&classes.decl(c).name)));
        if self_sized {
            2
        } else {
            let bytes = calculated_size(heap, values).unwrap_or(0) as u64;
            4 + bytes / 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_analysis::{analyze, Edge};
    use mpart_ir::parse::parse_program;

    const PUSH: &str = r#"
        class ImageData { width: int, buff: ref }
        fn push(event) {
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

    #[test]
    fn push_example_reproduces_paper_pse_structure() {
        let program = parse_program(PUSH).unwrap();
        let model = DataSizeModel::new();
        let ha = analyze(&program, "push", &model).unwrap();
        let edges: Vec<Edge> = ha.pses().iter().map(|p| p.edge).collect();

        // Analogue of the paper's PSESet {Edge(4,10), Edge(2,3), Edge(8,9)}:
        // 1. the edge into the skip-path return (filter non-ImageData at
        //    the sender: nothing crosses),
        // 2. the entry edge (ship the raw event),
        // 3. the edge after resize (ship the resized image).
        assert!(edges.contains(&Edge::new(1, 6)), "skip-path edge: {edges:?}");
        assert!(edges.iter().any(|e| e.is_entry()), "entry edge: {edges:?}");
        assert!(edges.contains(&Edge::new(3, 4)), "post-resize edge: {edges:?}");
        assert_eq!(edges.len(), 3, "{edges:?}");
    }

    #[test]
    fn cast_aliasing_dedups_equivalent_edges() {
        // Edges carrying {event} and {r2 = (cast) event} must collapse.
        let program = parse_program(PUSH).unwrap();
        let model = DataSizeModel::new();
        let ha = analyze(&program, "push", &model).unwrap();
        let f = program.function("push").unwrap();
        let event = f.var_by_name("event").unwrap();
        let r2 = f.var_by_name("r2").unwrap();
        assert!(ha.aliases.same(event, r2));
        // No two PSEs both carry (only) the event alias class.
        let carrying: Vec<_> = ha
            .pses()
            .iter()
            .filter(|p| {
                let canon = ha.aliases.canon_set(&p.inter);
                canon == ha.aliases.canon_set(&[event])
            })
            .collect();
        assert_eq!(carrying.len(), 1, "{carrying:?}");
    }

    #[test]
    fn skip_path_edge_costs_zero() {
        let program = parse_program(PUSH).unwrap();
        let model = DataSizeModel::new();
        let ha = analyze(&program, "push", &model).unwrap();
        let skip = ha.pses().iter().find(|p| p.edge == Edge::new(1, 6)).expect("skip-path PSE");
        assert_eq!(skip.static_cost, StaticCost::Known(0));
        assert!(skip.inter.is_empty());
    }

    #[test]
    fn runtime_size_prefers_self_sizer() {
        let src = "class Big { buff: ref }\nfn f(x) {\n  return x\n}\n";
        let program = parse_program(src).unwrap();
        let mut sizers = SelfSizerRegistry::new();
        sizers.register("Big", |_, _| Ok(4242));
        let model = DataSizeModel::with_sizers(sizers);
        let mut heap = Heap::new();
        let big = heap.alloc_object(&program.classes, program.classes.id("Big").unwrap());
        let size = model.runtime_size(&heap, &program.classes, &[Value::Ref(big)]);
        assert_eq!(size, 4242);
    }

    #[test]
    fn measured_payload_grows_with_data() {
        let src = "fn f(x) {\n  return x\n}\n";
        let program = parse_program(src).unwrap();
        let model = DataSizeModel::new();
        let mut heap = Heap::new();
        let small = heap.alloc_array(mpart_ir::types::ElemType::Byte, 16);
        let large = heap.alloc_array(mpart_ir::types::ElemType::Byte, 4096);
        let s = model.measure_payload(&heap, &program.classes, &[Value::Ref(small)]);
        let l = model.measure_payload(&heap, &program.classes, &[Value::Ref(large)]);
        assert!(l > s + 4000, "{l} vs {s}");
    }
}
