//! The power-consumption cost model — §7's first suggested extension
//! ("we would also like to work on extending cost models to include
//! considerations of power consumption").
//!
//! Mobile senders spend battery on two fronts: CPU cycles executed by the
//! modulator and radio time transmitting the continuation. The model
//! prices a split edge as the *sender-side* energy it implies:
//!
//! ```text
//! E(e) = cpu_nj_per_work · W_mod(e)  +  radio_nj_per_byte · S(e)
//! ```
//!
//! Statically, only the byte component can be bounded (like the data-size
//! model); the CPU component is profiled. Early splits save CPU but burn
//! radio on raw data; late splits do the opposite — the optimum tracks the
//! device's actual energy ratios.

use mpart_analysis::cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
use mpart_analysis::ug::Edge;
use mpart_ir::heap::Heap;
use mpart_ir::instr::Var;
use mpart_ir::marshal::{calculated_size, REF_SIZE};
use mpart_ir::types::ClassTable;
use mpart_ir::Value;

use crate::{CostModel, RuntimeCostKind};

/// Cost model minimizing the *sender's* energy per message.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Nanojoules per work unit executed on the sender's CPU.
    pub cpu_nj_per_work: f64,
    /// Nanojoules per byte transmitted on the sender's radio.
    pub radio_nj_per_byte: f64,
}

impl PowerModel {
    /// A handheld-like default: radio transmission costs ~20× the energy
    /// of a CPU work unit (typical for 802.11-era hardware, where sending
    /// a byte cost roughly as much as a thousand cycles).
    pub fn new() -> Self {
        PowerModel { cpu_nj_per_work: 1.0, radio_nj_per_byte: 20.0 }
    }

    /// Custom energy ratios.
    pub fn with_ratios(cpu_nj_per_work: f64, radio_nj_per_byte: f64) -> Self {
        PowerModel { cpu_nj_per_work, radio_nj_per_byte }
    }

    /// Sender energy (nanojoules) of executing `mod_work` units and then
    /// transmitting `bytes`.
    pub fn energy(&self, mod_work: u64, bytes: u64) -> f64 {
        self.cpu_nj_per_work * mod_work as f64 + self.radio_nj_per_byte * bytes as f64
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeCostEstimator for PowerModel {
    fn edge_cost(
        &self,
        cx: &EstimatorCx<'_>,
        pos: EdgePos,
        _edge: Edge,
        inter: &[Var],
    ) -> StaticCost {
        // CPU component: instructions executed before the edge — fully
        // known statically in instruction counts.
        let cpu = (self.cpu_nj_per_work * pos.before as f64).round() as u64;
        // Radio component: like the data-size model, scalars are known and
        // references are lower-bounded.
        let mut det = cpu;
        let mut unknown = Vec::new();
        for &v in inter {
            match cx.kinds.kind(v).known_size() {
                Some(w) => det += (self.radio_nj_per_byte * w as f64).round() as u64,
                None => {
                    det += (self.radio_nj_per_byte * REF_SIZE as f64).round() as u64;
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

impl CostModel for PowerModel {
    fn name(&self) -> &str {
        "power"
    }

    fn cache_key(&self) -> String {
        // Both ratios shape `edge_cost`, so they must distinguish cache
        // entries even though the display name is fixed.
        format!(
            "power({:016x},{:016x})",
            self.cpu_nj_per_work.to_bits(),
            self.radio_nj_per_byte.to_bits()
        )
    }

    fn kind(&self) -> RuntimeCostKind {
        // Runtime weights combine profiled sizes like the data-size model;
        // the radio factor dominates, so reusing the size statistics is
        // the right reconfiguration signal.
        RuntimeCostKind::DataSize
    }

    fn measure_payload(&self, heap: &Heap, _classes: &ClassTable, values: &[Value]) -> u64 {
        let bytes = calculated_size(heap, values).unwrap_or(0) as u64;
        (self.radio_nj_per_byte * bytes as f64).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn analyzes_and_prices_edges() {
        let program = parse_program(SRC).unwrap();
        let model = PowerModel::new();
        let ha = analyze(&program, "handle", &model).unwrap();
        assert!(!ha.pses().is_empty());
        // Radio-dominant pricing: the empty-INTER skip edge costs only its
        // CPU prefix; data-carrying edges are lower-bounded above it.
        let skip = ha.pses().iter().find(|p| p.inter.is_empty()).expect("skip edge");
        match &skip.static_cost {
            StaticCost::Known(k) => assert!(*k < 10, "{k}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn energy_combines_cpu_and_radio() {
        let m = PowerModel::with_ratios(2.0, 10.0);
        assert_eq!(m.energy(100, 50), 200.0 + 500.0);
    }

    #[test]
    fn cache_key_distinguishes_energy_ratios() {
        let a = PowerModel::with_ratios(1.0, 20.0);
        let b = PowerModel::with_ratios(1.0, 30.0);
        assert_eq!(a.name(), b.name());
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn measure_scales_with_radio_factor() {
        let program = parse_program(SRC).unwrap();
        let mut heap = Heap::new();
        let arr = heap.alloc_array(mpart_ir::types::ElemType::Byte, 1000);
        let cheap = PowerModel::with_ratios(1.0, 1.0);
        let pricey = PowerModel::with_ratios(1.0, 30.0);
        let a = cheap.measure_payload(&heap, &program.classes, &[Value::Ref(arr)]);
        let b = pricey.measure_payload(&heap, &program.classes, &[Value::Ref(arr)]);
        assert_eq!(b, a * 30);
    }
}
