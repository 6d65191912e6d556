//! # mpart-analysis — static analysis for Method Partitioning
//!
//! Implements the static half of the paper: given a message-handling
//! method in [`mpart_ir`] form and a cost model's
//! [`cost::EdgeCostEstimator`], produce the set of
//! *Potential Split Edges* (PSEs) at which the handler may be split into a
//! modulator (sender-side) and demodulator (receiver-side) pair.
//!
//! The pipeline (all exposed individually for testing and tooling):
//!
//! 1. [`ug::UnitGraph`] — per-instruction CFG;
//! 2. [`stop::StopNodes`] — returns, native calls, global accesses;
//! 3. [`liveness::Liveness`] — IN/OUT sets and `INTER(e)`;
//! 4. [`reaching::ReachingDefs`] → [`ddg::Ddg`] — data dependencies;
//! 5. [`points_to::AliasClasses`] — unification-based points-to;
//! 6. [`varkinds::VarKinds`] — size determinability;
//! 7. [`dag::TargetDag`] — the target paths as a loop-collapsed DAG;
//! 8. [`convex::ConvexCut`] — infinite pricing of convexity-violating
//!    edges and `MinCostEdgeSet` as reachability on that DAG.
//!
//! [`analyze`] runs the whole pipeline and returns a [`HandlerAnalysis`].
//! The result is pure — a function of the program text, handler name,
//! and cost model — so multi-session runtimes share one analysis per
//! distinct handler through the content-addressed
//! [`cache::AnalysisCache`] instead of re-running the pipeline per
//! session (see `ARCHITECTURE.md` §"mpart-analysis" and §"Throughput
//! layer" for where this sits in the crate map).
//!
//! ```
//! use mpart_analysis::analyze;
//! use mpart_analysis::cost::InterCountEstimator;
//! use mpart_ir::parse::parse_program;
//!
//! let program = parse_program(
//!     "fn watch(x) {\n  y = x * 3\n  native emit(y)\n  return y\n}\n",
//! ).unwrap();
//! let analysis = analyze(&program, "watch", &InterCountEstimator).unwrap();
//! // Every handler exposes at least the trivial entry split.
//! assert!(analysis.pses().iter().any(|p| p.edge.is_entry()));
//! ```

pub mod bitset;
pub mod cache;
pub mod convex;
pub mod cost;
pub mod dag;
pub mod ddg;
pub mod liveness;
pub mod points_to;
pub mod reaching;
pub mod stop;
pub mod ug;
pub mod union_find;
pub mod varkinds;

use std::collections::HashSet;

use mpart_ir::instr::Pc;
use mpart_ir::{IrError, Program};

pub use cache::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
pub use convex::{ConvexCut, PseInfo};
pub use cost::{EdgeCostEstimator, EdgePos, EstimatorCx, StaticCost};
pub use ug::{Edge, ENTRY};

/// Complete static-analysis results for one handler under one cost model.
#[derive(Debug, Clone)]
pub struct HandlerAnalysis {
    /// Name of the analyzed handler function.
    pub func_name: String,
    /// The Unit Graph.
    pub ug: ug::UnitGraph,
    /// Live-variable sets.
    pub liveness: liveness::Liveness,
    /// Data Dependency Graph.
    pub ddg: ddg::Ddg,
    /// Stop nodes.
    pub stops: stop::StopNodes,
    /// Alias classes.
    pub aliases: points_to::AliasClasses,
    /// Variable size classification.
    pub kinds: varkinds::VarKinds,
    /// The convex-cut result: PSEs and infinitely-priced edges.
    pub cut: ConvexCut,
}

impl HandlerAnalysis {
    /// The PSE list, in ascending edge order (the entry edge last).
    pub fn pses(&self) -> &[PseInfo] {
        &self.cut.pses
    }

    /// Index of the PSE covering `edge`, if any.
    pub fn pse_for_edge(&self, edge: Edge) -> Option<usize> {
        self.cut.pses.iter().position(|p| p.edge == edge)
    }

    /// The target paths as a DAG (rebuilt from the Unit Graph and stop
    /// nodes; linear in the handler's size).
    pub fn dag(&self) -> dag::TargetDag {
        dag::TargetDag::build(&self.ug, &self.stops)
    }

    /// Derives bytecode-compilation hints from the static pipeline (see
    /// [`ExecHints`]): the watched edge set from the PSE list and stop
    /// nodes, and the former superinstruction candidates from the DDG.
    pub fn exec_hints(&self) -> ExecHints {
        let mut observed = HashSet::new();
        // Non-entry PSE edges: where the modulator may split and both
        // sides run profiling code. The synthetic entry edge has no
        // runtime counterpart (entry splits never start execution).
        for pse in self.pses() {
            if !pse.edge.is_entry() {
                observed.insert((pse.edge.from, pse.edge.to));
            }
        }
        // Edges into stop nodes: the modulator must detect the plan
        // violation *before* a stop node executes on the sender.
        for stop in self.stops.iter() {
            for &p in self.ug.preds(stop) {
                observed.insert((p, stop));
            }
        }
        // A def consumed by the textually next instruction is the
        // load/op/store chain shape worth fusing.
        let mut fuse_at = HashSet::new();
        for dep in self.ddg.edges() {
            if dep.uses == dep.def + 1 {
                fuse_at.insert(dep.def);
            }
        }
        ExecHints { observed, fuse_at }
    }
}

/// Bytecode-compilation hints derived from a [`HandlerAnalysis`]
/// (consumed by `mpart_ir::compile` via the partitioned runtime).
///
/// `observed` is the *watched set*: every Unit Graph edge where the
/// modulator/demodulator observers can act — non-entry PSE edges (split
/// and profiling points) plus edges into stop nodes (sender-side plan
/// violation detection). The compiled engine skips edge observation
/// everywhere else, which is what makes the dispatch loop fast; the
/// engines stay observationally equivalent *because* this set covers all
/// acting edges.
///
/// `fuse_at` lists instruction indices whose defined value is consumed by
/// the immediately following instruction (a DDG `def → def+1` edge) — the
/// candidates of the superinstructions the compiler used to fuse. It no
/// longer fuses (blocks are metered whole), so the compiler ignores them.
#[derive(Debug, Clone, Default)]
pub struct ExecHints {
    /// Watched `(from, to)` control-flow edges.
    pub observed: HashSet<(Pc, Pc)>,
    /// Fusion start candidates: `pc` whose def feeds `pc + 1`.
    pub fuse_at: HashSet<Pc>,
}

/// Runs the full static-analysis pipeline on `func_name` within `program`.
///
/// # Errors
///
/// Returns [`IrError::Unresolved`] if the function does not exist and
/// [`IrError::Invalid`] if it is degenerate (no instructions).
pub fn analyze(
    program: &Program,
    func_name: &str,
    estimator: &dyn EdgeCostEstimator,
) -> Result<HandlerAnalysis, IrError> {
    let func = program.function_or_err(func_name)?;
    if func.instrs.is_empty() {
        return Err(IrError::Invalid(format!("function `{func_name}` is empty")));
    }
    let ug = ug::UnitGraph::build(func);
    let stops = stop::StopNodes::mark_with_program(program, func);
    let live = liveness::Liveness::compute(func, &ug);
    let rd = reaching::ReachingDefs::compute(func, &ug);
    let ddg = ddg::Ddg::build(func, &ug, &rd);
    let dag = dag::TargetDag::build(&ug, &stops);
    let kinds = varkinds::VarKinds::compute(func);
    let aliases = points_to::AliasClasses::compute(func);
    let cx = EstimatorCx { func, kinds: &kinds, aliases: &aliases };
    let mut cut = ConvexCut::run(func, &ug, &dag, &live, &ddg, &cx, estimator);
    ensure_entry_pse(func, &dag, &live, &cx, estimator, &mut cut);
    Ok(HandlerAnalysis {
        func_name: func_name.to_string(),
        ug,
        liveness: live,
        ddg,
        stops,
        aliases,
        kinds,
        cut,
    })
}

/// Reinstates the synthetic entry edge as a PSE if `MinCostEdgeSet`
/// pruned it as dominated.
///
/// The entry cut — ship the raw event, run the whole handler at the
/// receiver — is always a *valid* cut, and the runtime relies on it as the
/// trivial fallback plan when the link degrades. Static dominance pruning
/// is only a search-space reduction; it must not remove the one plan that
/// needs no link quality and no profiling data to be safe. It is priced
/// at its true static cost (never infinity: no data dependency can cross
/// an edge with no modulator side) and, as the greatest edge, goes last.
fn ensure_entry_pse(
    func: &mpart_ir::Function,
    dag: &dag::TargetDag,
    liveness: &liveness::Liveness,
    cx: &EstimatorCx<'_>,
    estimator: &dyn EdgeCostEstimator,
    cut: &mut ConvexCut,
) {
    let edge = Edge::entry(dag.start());
    if cut.pses.iter().any(|p| p.edge.is_entry()) || !dag.edges().contains(&edge) {
        return;
    }
    let inter = liveness.inter(func, edge);
    let static_cost = estimator.edge_cost(cx, dag.position(edge), edge, &inter);
    cut.pses.push(PseInfo { edge, inter, static_cost });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cost::InterCountEstimator;
    use mpart_ir::instr::Var;
    use mpart_ir::parse::parse_program;

    #[test]
    fn analyze_push_example_end_to_end() {
        let src = r#"
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
        let program = parse_program(src).unwrap();
        let ha = analyze(&program, "push", &InterCountEstimator).unwrap();
        assert_eq!(ha.func_name, "push");
        assert_eq!(ha.dag().path_count(), 2);
        assert!(!ha.pses().is_empty());
        // Every target path must have at least one candidate split edge.
        let dag = ha.dag();
        let pse = |e: Edge| ha.pse_for_edge(e).is_some();
        assert!(pse(Edge::entry(0)) || !dag.reaches(0, |e| !pse(e), |n| dag.is_terminal(n)));
    }

    #[test]
    fn analyze_missing_function_errors() {
        let program = parse_program("fn f() {\n  return\n}\n").unwrap();
        assert!(analyze(&program, "nope", &InterCountEstimator).is_err());
    }

    #[test]
    fn entry_pse_survives_dominance_pruning() {
        // `a` dies immediately, so the entry edge {x, y} is dominated and
        // MinCostEdgeSet prunes it — yet the analysis must still expose it
        // as the runtime's trivial fallback plan.
        let src = "fn f(x, y) {\n  a = x + y\n  b = a * 2\n  return b\n}\n";
        let program = parse_program(src).unwrap();
        let ha = analyze(&program, "f", &InterCountEstimator).unwrap();
        let entry = ha.pses().iter().position(|p| p.edge.is_entry()).expect("entry PSE reinstated");
        // It sorts last, as the greatest edge.
        assert_eq!(entry, ha.pses().len() - 1);
        // And it is priced at its real cost, not infinity.
        assert!(!matches!(ha.pses()[entry].static_cost, StaticCost::Infinite));
    }

    #[test]
    fn pse_for_edge_lookup() {
        let program = parse_program("fn f(x) {\n  a = x + 1\n  return a\n}\n").unwrap();
        let ha = analyze(&program, "f", &InterCountEstimator).unwrap();
        let pse0 = &ha.pses()[0];
        assert_eq!(ha.pse_for_edge(pse0.edge), Some(0));
        assert_eq!(ha.pse_for_edge(Edge::new(97, 98)), None);
    }

    /// Prices like the data-size model with every size unknown: a lower
    /// bound of one per live variable, over the variables themselves.
    struct UnknownSizes;

    impl EdgeCostEstimator for UnknownSizes {
        fn edge_cost(
            &self,
            cx: &EstimatorCx<'_>,
            _: EdgePos,
            _: Edge,
            inter: &[Var],
        ) -> StaticCost {
            StaticCost::LowerBounded { det: inter.len() as u64, vars: cx.aliases.canon_set(inter) }
        }
    }

    /// A ladder of `diamonds` sequential branches (2^diamonds paths into
    /// `sink`), optionally behind an early `if x == 99 goto alt`.
    fn churn(diamonds: usize, early_exit: bool) -> Program {
        let mut src = String::from("fn churn(x) {\n");
        if early_exit {
            src.push_str("  if x == 99 goto alt\n");
        }
        src.push_str("  t = x\n");
        for i in 0..diamonds {
            let step = i + 1;
            src.push_str(&format!(
                "  b{i} = t - {i}\n  if b{i} == 0 goto skip{i}\n  t = t + {step}\nskip{i}:\n"
            ));
        }
        src.push_str("  native sink(t)\n  return t\n");
        if early_exit {
            src.push_str("alt:\n  y = x * 2\n  native other(y)\n  return 0\n");
        }
        src.push_str("}\n");
        parse_program(&src).unwrap()
    }

    #[test]
    fn branch_behind_a_long_ladder_still_gets_its_pse() {
        // 4 096 ladder paths come first in depth-first order; `alt`'s
        // split edge must be found all the same.
        let ha = analyze(&churn(12, true), "churn", &UnknownSizes).unwrap();
        assert_eq!(ha.dag().path_count(), 4097);
        assert!(ha.pse_for_edge(Edge::new(40, 41)).is_some(), "{:?}", ha.pses());
    }

    #[test]
    fn forty_diamond_ladder_analyzes_in_full() {
        // 2^40 target paths: the entry edge plus each diamond's `{t, bI}`
        // edge (the `{t}` edges equal the entry edge's `{x}`, an alias).
        let ha = analyze(&churn(40, false), "churn", &UnknownSizes).unwrap();
        assert_eq!(ha.dag().path_count(), 1 << 40);
        assert_eq!(ha.pses().len(), 41);
    }

    /// Prices back edges (`to <= from`) cheapest of all, the entry edge
    /// dearest.
    struct BackEdgesCheap;

    impl EdgeCostEstimator for BackEdgesCheap {
        fn edge_cost(&self, _: &EstimatorCx<'_>, _: EdgePos, e: Edge, _: &[Var]) -> StaticCost {
            StaticCost::Known(match e {
                e if e.is_entry() => 20,
                e if e.to <= e.from => 1,
                _ => 10,
            })
        }
    }

    #[test]
    fn loop_back_edge_is_never_a_pse() {
        // Nothing is carried around the loop, so convexity prices no edge
        // infinite, and the back edge (2,0) leaves a node that also reaches
        // the exit. It is still no PSE, because no target path — a simple
        // path — can take it.
        let src = r#"
            fn f(x) {
            head:
                if x == 0 goto done
                y = x + 1
                if x != 5 goto head
            done:
                return x
            }
        "#;
        let ha = analyze(&parse_program(src).unwrap(), "f", &BackEdgesCheap).unwrap();
        assert!(ha.cut.infinite_edges.is_empty());
        let edges: Vec<Edge> = ha.pses().iter().map(|p| p.edge).collect();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(0, 3), Edge::entry(0)]);
    }
}
