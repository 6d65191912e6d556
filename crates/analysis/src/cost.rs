//! Static edge costs and the cost-model interface used by `ConvexCut`.
//!
//! Cost models live in the `mpart-cost` crate; this module defines only
//! what the static analysis needs from them: a per-edge *static* cost that
//! may be fully known, lower-bounded (with the set of variables whose
//! sizes are runtime-only), or infinite (edges priced out by the convexity
//! rule).

use std::cmp::Ordering;

use mpart_ir::func::Function;
use mpart_ir::instr::Var;

use crate::points_to::AliasClasses;
use crate::ug::Edge;
use crate::varkinds::VarKinds;

/// Statically-estimated cost of cutting at an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaticCost {
    /// Fully determined at analysis time.
    Known(u64),
    /// Partially determined: a deterministic component plus a set of
    /// variables whose runtime sizes are unknown. The true cost is
    /// `>= det` (each unknown variable contributes a non-negative size).
    /// `vars` must be canonicalized through the alias classes so that
    /// renamed copies of the same object compare equal.
    LowerBounded {
        /// Deterministic partial cost.
        det: u64,
        /// Canonicalized non-determinable variables.
        vars: Vec<Var>,
    },
    /// Never cut here (convexity violation).
    Infinite,
}

impl StaticCost {
    /// Partial-order comparison following §4.1 of the paper:
    ///
    /// * two known costs compare numerically;
    /// * a known cost `k` is determinably less than a lower-bounded cost
    ///   whose bound is `>= k` (the unknown part only adds);
    /// * two lower-bounded costs with *identical* unknown variable sets
    ///   compare by their deterministic parts;
    /// * `Infinite` exceeds everything (and equals itself);
    /// * anything else is incomparable (`None`).
    pub fn partial_cmp_cost(&self, other: &StaticCost) -> Option<Ordering> {
        use StaticCost::*;
        match (self, other) {
            (Infinite, Infinite) => Some(Ordering::Equal),
            (Infinite, _) => Some(Ordering::Greater),
            (_, Infinite) => Some(Ordering::Less),
            (Known(a), Known(b)) => Some(a.cmp(b)),
            (Known(a), LowerBounded { det, .. }) => {
                // other >= det; if det >= a then other >= a.
                if det >= a {
                    Some(Ordering::Less) // self < other (or equal; Less is
                                         // safe for exclusion purposes only
                                         // when strict — see cmp use sites)
                } else {
                    None
                }
            }
            (LowerBounded { det, .. }, Known(b)) => {
                if det >= b {
                    Some(Ordering::Greater)
                } else {
                    None
                }
            }
            (LowerBounded { det: da, vars: va }, LowerBounded { det: db, vars: vb }) => {
                if va == vb {
                    Some(da.cmp(db))
                } else {
                    None
                }
            }
        }
    }

    /// Whether `self` is *determinably strictly greater* than `other` —
    /// the exclusion criterion of `MinCostEdgeSet` ("an edge has minimal
    /// cost ... if no other edge in the set has a determinably smaller
    /// cost").
    pub fn determinably_greater(&self, other: &StaticCost) -> bool {
        use StaticCost::*;
        match (self, other) {
            (Infinite, Infinite) => false,
            (Infinite, _) => true,
            (_, Infinite) => false,
            (Known(a), Known(b)) => a > b,
            // self >= det; strictly greater when det > other's known cost.
            (LowerBounded { det, .. }, Known(b)) => det > b,
            // self is exactly a; other >= det — can only show other >= self,
            // never self > other.
            (Known(_), LowerBounded { .. }) => false,
            (LowerBounded { det: da, vars: va }, LowerBounded { det: db, vars: vb }) => {
                va == vb && da > db
            }
        }
    }

    /// Whether the two costs are determinably equal (identical knowns, or
    /// identical unknown sets with equal deterministic parts).
    pub fn determinably_equal(&self, other: &StaticCost) -> bool {
        self.partial_cmp_cost(other) == Some(Ordering::Equal)
            || matches!(
                (self, other),
                (
                    StaticCost::LowerBounded { det: a, vars: va },
                    StaticCost::LowerBounded { det: b, vars: vb }
                ) if a == b && va == vb
            )
    }
}

/// Context handed to cost estimators for each edge.
#[derive(Debug)]
pub struct EstimatorCx<'a> {
    /// The handler function.
    pub func: &'a Function,
    /// Variable size classification.
    pub kinds: &'a VarKinds,
    /// Alias classes for canonicalizing unknown-variable sets.
    pub aliases: &'a AliasClasses,
}

/// Where an edge sits on the target paths through it, in instruction
/// counts on the loop-collapsed DAG (see [`crate::dag::TargetDag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePos {
    /// Instructions on the longest path from the start node up to and
    /// including the edge's tail — the modulator's share (0 for the entry
    /// edge).
    pub before: u64,
    /// Instructions on the longest path from the edge's head up to and
    /// including a terminal — the demodulator's share.
    pub after: u64,
}

/// A cost model's static half: prices cutting a given edge at its
/// position on the target paths.
///
/// Implementations receive the edge's [`EdgePos`] plus its `INTER`
/// live-variable set.
pub trait EdgeCostEstimator {
    /// Static cost of splitting at this edge.
    fn edge_cost(
        &self,
        cx: &EstimatorCx<'_>,
        pos: EdgePos,
        edge: Edge,
        inter: &[Var],
    ) -> StaticCost;
}

/// A trivial estimator pricing every edge by the count of live variables
/// crossing it — useful for tests and as a documentation example.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterCountEstimator;

impl EdgeCostEstimator for InterCountEstimator {
    fn edge_cost(
        &self,
        _cx: &EstimatorCx<'_>,
        _pos: EdgePos,
        _edge: Edge,
        inter: &[Var],
    ) -> StaticCost {
        StaticCost::Known(inter.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lb(det: u64, vars: &[u32]) -> StaticCost {
        StaticCost::LowerBounded { det, vars: vars.iter().map(|&v| Var(v)).collect() }
    }

    #[test]
    fn known_vs_known() {
        assert!(StaticCost::Known(5).determinably_greater(&StaticCost::Known(3)));
        assert!(!StaticCost::Known(3).determinably_greater(&StaticCost::Known(3)));
        assert!(StaticCost::Known(3).determinably_equal(&StaticCost::Known(3)));
    }

    #[test]
    fn lower_bound_excludes_when_above_known() {
        // Paper: "if this lower bound is higher than the cost of a
        // cost-determinable edge in a path, then we can exclude the edge
        // with non-determinable cost".
        assert!(lb(10, &[1]).determinably_greater(&StaticCost::Known(4)));
        assert!(!lb(3, &[1]).determinably_greater(&StaticCost::Known(4)));
        // A known cost can never be shown strictly greater than an
        // unknown-containing cost.
        assert!(!StaticCost::Known(100).determinably_greater(&lb(0, &[1])));
    }

    #[test]
    fn identical_unknown_sets_compare_by_det() {
        assert!(lb(5, &[1, 2]).determinably_greater(&lb(3, &[1, 2])));
        assert!(!lb(5, &[1, 2]).determinably_greater(&lb(3, &[1, 3])));
        assert!(lb(3, &[1]).determinably_equal(&lb(3, &[1])));
        assert!(!lb(3, &[1]).determinably_equal(&lb(3, &[2])));
    }

    #[test]
    fn infinite_dominates() {
        assert!(StaticCost::Infinite.determinably_greater(&StaticCost::Known(u64::MAX)));
        assert!(StaticCost::Infinite.determinably_greater(&lb(0, &[])));
        assert!(!StaticCost::Infinite.determinably_greater(&StaticCost::Infinite));
        assert!(!StaticCost::Known(0).determinably_greater(&StaticCost::Infinite));
    }

    #[test]
    fn partial_cmp_incomparable_cases() {
        assert_eq!(lb(0, &[1]).partial_cmp_cost(&lb(0, &[2])), None);
        assert_eq!(StaticCost::Known(5).partial_cmp_cost(&lb(3, &[1])), None);
    }
}
