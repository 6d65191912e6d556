//! # mpart-cost — cost models for Method Partitioning
//!
//! "Cost Models are used to determine the costs of edges, and edge costs
//! determine the costs of partitioning plans" (§2.2). A cost model has two
//! halves:
//!
//! * a **static half** — an [`EdgeCostEstimator`] consulted by the
//!   `ConvexCut` analysis to price candidate split edges at compile time
//!   (possibly only with lower bounds);
//! * a **runtime half** — measurement procedures invoked by the Runtime
//!   Profiling Unit for the PSEs whose costs "cannot be determined
//!   statically".
//!
//! Two concrete models reproduce §4 of the paper:
//!
//! * [`DataSizeModel`] (§4.1) — cost is the number of bytes a continuation
//!   message ships from the modulator to the demodulator, computed from the
//!   live-variable `INTER` set with the custom sizing machinery of
//!   [`mpart_ir::marshal`] (generic walk or self-describing `sizeOf`
//!   fast path — Table 1);
//! * [`ExecTimeModel`] (§4.2) — cost approximates
//!   `n · max(T_mod(1), T_demod(1))`: the partition should balance per-unit
//!   processing time across sender and receiver.
//!
//! A third model implements an extension §7 proposes as future work:
//! [`PowerModel`] (sender-side energy).

pub mod data_size;
pub mod exec_time;
pub mod power;

pub use data_size::DataSizeModel;
pub use exec_time::ExecTimeModel;
pub use power::PowerModel;

use mpart_analysis::EdgeCostEstimator;
use mpart_ir::heap::Heap;
use mpart_ir::types::ClassTable;
use mpart_ir::Value;

/// How the Reconfiguration Unit should combine profiled statistics into
/// per-PSE cut weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeCostKind {
    /// Weight a PSE by the observed continuation payload size (bytes).
    DataSize,
    /// Weight a PSE by `max(T_mod, T_demod)` under current host speeds.
    ExecTime,
}

/// A deployment-time cost model: the only application-level knowledge
/// Method Partitioning requires (§2.6).
///
/// The trait extends [`EdgeCostEstimator`] (the static half) with the
/// runtime measurement hook used by the profiling code that static
/// analysis inserts along each PSE.
pub trait CostModel: EdgeCostEstimator + Send + Sync {
    /// Human-readable model name (e.g. `"data-size"`).
    fn name(&self) -> &str;

    /// A fingerprint of the model's *pricing behavior*, used to key
    /// analysis caches: two models whose `cache_key` matches must assign
    /// identical static costs to every edge. Parameterless models can use
    /// the default ([`name`](CostModel::name)); parameterized models
    /// (energy ratios, α/β link constants) must fold
    /// every parameter that influences [`EdgeCostEstimator::edge_cost`]
    /// into the key — the bare name would alias differently-tuned
    /// instances onto one cache entry and serve stale prices.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }

    /// How profiled statistics translate into reconfiguration weights.
    fn kind(&self) -> RuntimeCostKind;

    /// Measures the payload cost (bytes) of shipping `values` — the live
    /// variables of a split edge — out of `heap`. Invoked by per-PSE
    /// profiling code when the PSE's profiling flag is set.
    fn measure_payload(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64;

    /// Work units the profiling probe itself costs at this edge — the
    /// overhead Table 1 quantifies. The default charges one unit (a timer
    /// read); size-based models override this to reflect their sizing
    /// strategy (self-describing `sizeOf` is near-free, a generic walk is
    /// proportional to the object graph).
    fn profiling_work(&self, heap: &Heap, classes: &ClassTable, values: &[Value]) -> u64 {
        let _ = (heap, classes, values);
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_expose_names_and_kinds() {
        let ds = DataSizeModel::new();
        assert_eq!(ds.name(), "data-size");
        assert_eq!(ds.kind(), RuntimeCostKind::DataSize);
        let et = ExecTimeModel::new();
        assert_eq!(et.name(), "exec-time");
        assert_eq!(et.kind(), RuntimeCostKind::ExecTime);
    }

    #[test]
    fn parameterless_models_key_on_their_name() {
        assert_eq!(DataSizeModel::new().cache_key(), "data-size");
        assert_eq!(ExecTimeModel::new().cache_key(), "exec-time");
    }
}
