//! The deployment-time facade: analyze a handler once, then hand out the
//! modulator (to ship to senders) and demodulator (kept by the receiver).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};

use mpart_analysis::cache::AnalysisCache;
use mpart_analysis::{analyze, EdgeCostEstimator, HandlerAnalysis, StaticCost};
use mpart_cost::CostModel;
use mpart_ir::compile::{CompileHints, CompileOptions, Observed};
use mpart_ir::engine::{CompiledEngine, Engine, EngineChoice, InterpEngine};
use mpart_ir::{IrError, Program};

use mpart_obs::{pse_mask, ObsHub, PlanReason, TraceEvent};

use crate::demodulator::Demodulator;
use crate::modulator::Modulator;
use crate::obs::HandlerMetrics;
use crate::plan::{validate_mask, PartitionPlan};
use crate::reconfig::select_active_set;
use crate::PseId;

/// A handler analyzed for Method Partitioning under one cost model.
///
/// Created once at deployment time (when the receiver submits its handler);
/// the [`Modulator`] half is then installed into message senders while the
/// [`Demodulator`] half stays with the receiver. Both halves share this
/// structure (and its atomic [`PartitionPlan`]) by `Arc`.
pub struct PartitionedHandler {
    program: Arc<Program>,
    func_name: String,
    analysis: Arc<HandlerAnalysis>,
    /// The deployment-time cost model (§2.6), fixed for the handler's
    /// lifetime.
    model: Arc<dyn CostModel>,
    plan: PartitionPlan,
    edge_to_pse: HashMap<(usize, usize), PseId>,
    obs: Arc<ObsHub>,
    metrics: HandlerMetrics,
    /// The live execution engine behind the modulator/demodulator hot
    /// paths. Defaults to the reference interpreter; swapped by
    /// [`select_engine`](Self::select_engine) (reads are wait-free in
    /// practice — writes happen only on a selection).
    engine: RwLock<Arc<dyn Engine>>,
}

impl std::fmt::Debug for PartitionedHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedHandler")
            .field("func", &self.func_name)
            .field("engine", &self.engine().name())
            .field("model", &self.model().name())
            .field("pses", &self.analysis.pses().len())
            .field("active", &self.plan.active())
            .finish()
    }
}

impl PartitionedHandler {
    /// Runs static analysis on `func_name` under `model` and installs the
    /// statically-optimal initial partition.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures (unknown function, malformed body);
    /// [`IrError::Invalid`] above 64 PSEs (see
    /// [`from_analysis`](Self::from_analysis)).
    pub fn analyze(
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
    ) -> Result<Arc<Self>, IrError> {
        let estimator: &dyn EdgeCostEstimator = model.as_ref();
        let analysis = Arc::new(analyze(&program, func_name, estimator)?);
        Self::from_analysis(program, analysis, model)
    }

    /// Like [`analyze`](Self::analyze), but answering from `cache`: the
    /// expensive static pipeline runs only on the first session of a
    /// given (program, handler, model) combination; later sessions share
    /// the immutable [`HandlerAnalysis`] by `Arc` while still getting
    /// their own plan, epoch history, and observability hub — so
    /// per-session reconfiguration stays independent.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures; [`IrError::Invalid`] above 64 PSEs.
    pub fn analyze_cached(
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        cache: &AnalysisCache,
    ) -> Result<Arc<Self>, IrError> {
        let analysis =
            cache.get_or_analyze(&program, func_name, &model.cache_key(), model.as_ref())?;
        Self::from_analysis(program, analysis, model)
    }

    /// Builds a handler around an already-computed (possibly shared)
    /// analysis. The handler gets fresh runtime state — plan flags, epoch
    /// history, metrics hub — so sessions sharing one analysis never
    /// share plans.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] if the analysis found more than 64
    /// PSEs (a plan is one 64-bit word; every constructor ends here),
    /// [`IrError::Unresolved`] if `program` lacks the analyzed function,
    /// and propagates initial plan selection failures.
    pub fn from_analysis(
        program: Arc<Program>,
        analysis: Arc<HandlerAnalysis>,
        model: Arc<dyn CostModel>,
    ) -> Result<Arc<Self>, IrError> {
        let func_name = analysis.func_name.clone();
        program.function_or_err(&func_name)?;
        let plan = PartitionPlan::new(analysis.pses().len())?;

        let edge_to_pse = analysis
            .pses()
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.edge.from, p.edge.to), i))
            .collect();

        let obs = Arc::new(ObsHub::new());
        let metrics = HandlerMetrics::register(obs.registry(), analysis.pses().len());
        let engine: Arc<dyn Engine> = Arc::new(InterpEngine::new(Arc::clone(&program)));
        let handler = PartitionedHandler {
            program,
            func_name,
            analysis,
            model,
            plan,
            edge_to_pse,
            obs,
            metrics,
            engine: RwLock::new(engine),
        };
        // Deployment-time initial plan from static costs alone.
        let weights = handler.static_weights();
        let initial = select_active_set(&handler.analysis, &weights)?;
        handler.install_plan_reason(&initial, PlanReason::Initial);
        handler.plan.validate_cut(&handler.analysis)?;
        Ok(Arc::new(handler))
    }

    /// Installs a new active set and returns its epoch. The install is
    /// [`PartitionPlan::install`] — one seqlocked mask write that also
    /// records the generation in the plan's retained history, so in-flight
    /// continuations stamped with recent epochs keep demodulating — plus
    /// the handler's bookkeeping: `plan_switch_total{reason="install"}` and
    /// a [`TraceEvent::PlanInstall`] in the trace ring.
    pub fn install_plan(&self, active: &[PseId]) -> u64 {
        self.install_plan_reason(active, PlanReason::Install)
    }

    /// Like [`install_plan`](Self::install_plan), tagging the install with
    /// the reason recorded in `plan_switch_total{reason}` and the trace
    /// ring ([`TraceEvent::PlanInstall`]).
    pub fn install_plan_reason(&self, active: &[PseId], reason: PlanReason) -> u64 {
        let epoch = self.plan.install(active);
        self.metrics.note_plan_switch(reason, epoch);
        self.obs.record(TraceEvent::PlanInstall { epoch, active_mask: pse_mask(active), reason });
        epoch
    }

    /// Validates a candidate active set without touching the serving
    /// plan: it must be non-empty, name only known PSEs, and form a cut
    /// (see [`PartitionPlan::validate_cut`]). This is the endpoint-side check of the
    /// two-phase `Prepare` step (DESIGN.md §16) — a candidate rejected
    /// here never reaches [`install_plan`](Self::install_plan).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] describing the first violation.
    pub fn validate_candidate(&self, active: &[PseId]) -> Result<(), IrError> {
        if active.is_empty() {
            return Err(IrError::Continuation("candidate plan names no PSEs".into()));
        }
        let n = self.analysis.pses().len();
        if let Some(&bad) = active.iter().find(|&&p| p >= n) {
            return Err(IrError::Continuation(format!(
                "candidate plan names unknown pse {bad} (handler has {n})"
            )));
        }
        validate_mask(pse_mask(active), &self.analysis)
    }

    /// Per-PSE weights derived from static costs (deterministic parts of
    /// lower bounds; used before any profiling data exists).
    pub fn static_weights(&self) -> Vec<u64> {
        self.analysis
            .pses()
            .iter()
            .map(|p| match &p.static_cost {
                StaticCost::Known(k) => *k,
                StaticCost::LowerBounded { det, .. } => *det,
                StaticCost::Infinite => mpart_flow::INF,
            })
            .collect()
    }

    /// The sender-side half.
    pub fn modulator(self: &Arc<Self>) -> Modulator {
        Modulator::new(Arc::clone(self))
    }

    /// The receiver-side half.
    pub fn demodulator(self: &Arc<Self>) -> Demodulator {
        Demodulator::new(Arc::clone(self))
    }

    /// The analyzed program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The handler function's name.
    pub fn func_name(&self) -> &str {
        &self.func_name
    }

    /// The handler function.
    pub fn func(&self) -> &mpart_ir::Function {
        self.program.function(&self.func_name).expect("validated at construction")
    }

    /// Static analysis results.
    pub fn analysis(&self) -> &Arc<HandlerAnalysis> {
        &self.analysis
    }

    /// The deployment-time cost model.
    pub fn model(&self) -> &Arc<dyn CostModel> {
        &self.model
    }

    /// The live execution engine (the reference interpreter until the
    /// first [`select_engine`](Self::select_engine)).
    pub fn engine(&self) -> Arc<dyn Engine> {
        Arc::clone(&self.engine.read().expect("engine lock poisoned"))
    }

    /// Installs the execution engine for `choice` and returns the name of
    /// the engine actually installed (`"interp"` or `"compiled"`).
    ///
    /// `Compiled` and `Auto` run the bytecode compile pass over the whole
    /// program under hints derived from this handler's analysis: the
    /// handler body watches exactly its non-entry PSE edges and the edges
    /// into stop nodes (where the modulator/demodulator observers act),
    /// and each watched edge ends a basic block; helper
    /// bodies reached through `call` never fire observers and compile with
    /// nothing watched. Declined bodies always run on the interpreter
    /// (compile-or-fallback) — under `Auto`, a declined *handler* body
    /// keeps the pure interpreter engine installed so the per-frame
    /// fallback indirection is never paid on the hot path.
    ///
    /// Counted in `compiled_bodies_total` / `compile_fallbacks_total` and
    /// traced as [`TraceEvent::EngineSelected`].
    pub fn select_engine(&self, choice: EngineChoice) -> &'static str {
        let (installed, bodies, declined): (Arc<dyn Engine>, u32, u32) = match choice {
            EngineChoice::Interp => (Arc::new(InterpEngine::new(Arc::clone(&self.program))), 0, 0),
            EngineChoice::Compiled | EngineChoice::Auto => {
                let hints = self.compile_hints();
                let engine = CompiledEngine::compile(Arc::clone(&self.program), &hints);
                let bodies = engine.compiled_bodies() as u32;
                let declined = engine.declined().len() as u32;
                self.metrics.note_engine_build(u64::from(bodies), u64::from(declined));
                let installed: Arc<dyn Engine> =
                    if choice == EngineChoice::Auto && !engine.is_compiled(&self.func_name) {
                        Arc::new(InterpEngine::new(Arc::clone(&self.program)))
                    } else {
                        Arc::new(engine)
                    };
                (installed, bodies, declined)
            }
        };
        let name = installed.name();
        self.obs.record(TraceEvent::EngineSelected {
            compiled: name == "compiled",
            bodies,
            declined,
        });
        *self.engine.write().expect("engine lock poisoned") = installed;
        name
    }

    /// Compile hints for this handler: the analysis' watched-edge set for
    /// the handler body, nothing watched everywhere else.
    fn compile_hints(&self) -> CompileHints {
        let exec = self.analysis.exec_hints();
        // Helper bodies reached through `call` never fire edge observers.
        let mut hints = CompileHints {
            default: CompileOptions {
                observed: Observed::Edges(HashSet::new()),
                fuse: true,
                fuse_at: None,
            },
            ..CompileHints::default()
        };
        hints.per_fn.insert(
            self.func_name.clone(),
            CompileOptions {
                observed: Observed::Edges(exec.observed),
                fuse: true,
                fuse_at: Some(exec.fuse_at),
            },
        );
        hints
    }

    /// The shared partition plan (atomic flags).
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// The handler's observability hub (metrics registry + trace ring).
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// Pre-registered instrument handles for this handler.
    pub fn metrics(&self) -> &HandlerMetrics {
        &self.metrics
    }

    /// PSE id of a Unit Graph edge, if that edge is a PSE.
    pub fn pse_of_edge(&self, from: usize, to: usize) -> Option<PseId> {
        self.edge_to_pse.get(&(from, to)).copied()
    }

    /// The PSE lying on the synthetic entry edge, if any.
    pub fn entry_pse(&self) -> Option<PseId> {
        self.analysis.pses().iter().position(|p| p.edge.is_entry())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mpart_cost::{DataSizeModel, ExecTimeModel};
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
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
    fn analyze_installs_valid_initial_plan() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h =
            PartitionedHandler::analyze(program, "push", Arc::new(DataSizeModel::new())).unwrap();
        h.plan().validate_cut(h.analysis()).unwrap();
        assert!(!h.plan().active().is_empty());
    }

    #[test]
    fn edge_lookup_round_trips() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h =
            PartitionedHandler::analyze(program, "push", Arc::new(DataSizeModel::new())).unwrap();
        for (i, pse) in h.analysis().pses().iter().enumerate() {
            assert_eq!(h.pse_of_edge(pse.edge.from, pse.edge.to), Some(i));
        }
        assert_eq!(h.pse_of_edge(500, 501), None);
        assert!(h.entry_pse().is_some());
    }

    #[test]
    fn plan_history_retains_last_k_generations() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h =
            PartitionedHandler::analyze(program, "push", Arc::new(DataSizeModel::new())).unwrap();
        h.plan().set_retention(3);
        // The deployment-time install is generation 1 and initially admissible.
        assert_eq!(h.plan().oldest_admissible_epoch(), 0);
        assert!(h.plan().active_at(1).is_some());

        let all: Vec<usize> = (0..h.analysis().pses().len()).collect();
        let e2 = h.install_plan(&all);
        // A direct plan install is a generation too.
        let e3 = h.plan().install(&[all[0]]);
        assert_eq!((e2, e3), (2, 3));
        assert_eq!(h.plan().active_at(3), Some(vec![all[0]]));

        // A fourth generation evicts the first.
        h.install_plan(&all);
        assert_eq!(h.plan().oldest_admissible_epoch(), 2);
        assert!(h.plan().active_at(1).is_none());
        assert!(h.plan().active_at(2).is_some());

        // Shrinking the retention evicts immediately.
        h.plan().set_retention(1);
        assert_eq!(h.plan().oldest_admissible_epoch(), 4);
    }

    /// A chain of `stages` calls: one PSE per inter-stage edge plus the
    /// entry edge, so `stages + 1` PSEs.
    pub(crate) fn pipeline(stages: usize) -> Arc<Program> {
        let mut src = String::from("fn s(y) {\n  return y\n}\nfn f(x) {\n  a0 = call s(x)\n");
        for i in 1..stages {
            src.push_str(&format!("  a{i} = call s(a{})\n", i - 1));
        }
        src.push_str(&format!("  native out(a{})\n  return\n}}\n", stages - 1));
        Arc::new(parse_program(&src).unwrap())
    }

    #[test]
    fn a_64_pse_handler_installs_its_full_set() {
        for model in
            [Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>, Arc::new(ExecTimeModel::new())]
        {
            let h = PartitionedHandler::analyze(pipeline(63), "f", model).unwrap();
            assert_eq!(h.analysis().pses().len(), 64);
            let all: Vec<usize> = (0..64).collect();
            let epoch = h.install_plan(&all);
            let view = h.plan().snapshot();
            assert_eq!((view.epoch, view.active()), (epoch, all.clone()));
            assert_eq!(view.profile, u64::MAX, "all 64 profiled");
            let traced = h.obs().trace().snapshot().into_iter().rev().find_map(|r| match r.event {
                TraceEvent::PlanInstall { epoch: e, active_mask, .. } if e == epoch => {
                    Some(active_mask)
                }
                _ => None,
            });
            assert_eq!(traced.map(mpart_obs::mask_to_pses), Some(all));
        }
    }

    #[test]
    fn a_65_pse_handler_is_refused_by_name() {
        for model in
            [Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>, Arc::new(ExecTimeModel::new())]
        {
            let err = PartitionedHandler::analyze(pipeline(64), "f", model).unwrap_err();
            assert!(matches!(&err, IrError::Invalid(m) if m.contains("65 PSEs")), "{err}");
        }
    }

    #[test]
    fn cached_sessions_share_analysis_but_not_plans() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let cache = AnalysisCache::new(4);
        let a = PartitionedHandler::analyze_cached(
            Arc::clone(&program),
            "push",
            Arc::new(DataSizeModel::new()),
            &cache,
        )
        .unwrap();
        let b = PartitionedHandler::analyze_cached(
            Arc::clone(&program),
            "push",
            Arc::new(DataSizeModel::new()),
            &cache,
        )
        .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(a.analysis(), b.analysis()), "one analysis, shared");
        // Runtime state is per-session: installing a plan on one handler
        // must not move the other's epoch.
        let all: Vec<usize> = (0..a.analysis().pses().len()).collect();
        a.install_plan(&all);
        assert_eq!(a.plan().epoch(), 2);
        assert_eq!(b.plan().epoch(), 1, "plans and epochs stay independent");
        // A different model is a different cache key.
        let c = PartitionedHandler::analyze_cached(
            Arc::clone(&program),
            "push",
            Arc::new(ExecTimeModel::new()),
            &cache,
        )
        .unwrap();
        assert!(!Arc::ptr_eq(a.analysis(), c.analysis()));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn engine_defaults_to_interp_and_selection_installs() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h =
            PartitionedHandler::analyze(program, "push", Arc::new(DataSizeModel::new())).unwrap();
        assert_eq!(h.engine().name(), "interp");
        assert_eq!(h.select_engine(EngineChoice::Compiled), "compiled");
        assert_eq!(h.engine().name(), "compiled");
        assert_eq!(h.select_engine(EngineChoice::Interp), "interp");
        // `push` compiles, so Auto lands on the bytecode engine.
        assert_eq!(h.select_engine(EngineChoice::Auto), "compiled");
        let kinds: Vec<&str> = h.obs().trace().snapshot().iter().map(|r| r.event.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "engine_selected").count(), 3);
    }

    #[test]
    fn modulation_agrees_across_engines() {
        let mut runs = Vec::new();
        for choice in [EngineChoice::Interp, EngineChoice::Compiled] {
            let program = Arc::new(parse_program(SRC).unwrap());
            let h = PartitionedHandler::analyze(
                Arc::clone(&program),
                "push",
                Arc::new(DataSizeModel::new()),
            )
            .unwrap();
            // Split late so the prefix actually executes on each engine.
            let late: Vec<usize> = h
                .analysis()
                .pses()
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.edge.is_entry())
                .map(|(i, _)| i)
                .collect();
            h.install_plan(&late);
            h.select_engine(choice);
            let m = h.modulator();
            let mut ctx = mpart_ir::interp::ExecCtx::new(&program);
            let run = m.handle(&mut ctx, vec![mpart_ir::Value::Int(7)]).unwrap();
            runs.push((run.message.pse, run.message.wire_size(), run.mod_work, ctx.steps));
        }
        assert_eq!(runs[0], runs[1], "engines must modulate identically");
    }

    #[test]
    fn exec_time_model_also_analyzes() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h =
            PartitionedHandler::analyze(program, "push", Arc::new(ExecTimeModel::new())).unwrap();
        h.plan().validate_cut(h.analysis()).unwrap();
    }

    #[test]
    fn unknown_function_errors() {
        let program = Arc::new(parse_program(SRC).unwrap());
        assert!(
            PartitionedHandler::analyze(program, "nope", Arc::new(DataSizeModel::new())).is_err()
        );
    }
}
