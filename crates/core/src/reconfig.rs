//! The Runtime Reconfiguration Unit.
//!
//! "It invokes a max-flow algorithm to re-select the optimal partitioning
//! from the graph of PSEs when profiling data changes significantly.
//! Finally, it sends a new partitioning plan to the modulator side" (§2.5).
//!
//! The optimal partition is the s–t minimum cut of the Unit Graph with
//! PSE edges priced at their profiled runtime weights and all other edges
//! at infinity (see [`select_active_set`]).

use mpart_analysis::{HandlerAnalysis, StaticCost, ENTRY};
use mpart_cost::RuntimeCostKind;
use mpart_flow::{Dinic, INF};
use mpart_ir::IrError;
use mpart_obs::{pse_mask, Counter, Gauge, ObsHub, TraceEvent};

use crate::plan::PartitionPlan;
use crate::profile::{
    DemodMessageProfile, ModMessageProfile, ProfileSnapshot, ProfilingUnit, TriggerPolicy,
};
use crate::PseId;

/// Selects the minimum-weight cut of the Unit Graph, returning the PSE ids
/// whose split flags should be set.
///
/// Graph construction: nodes are the handler's instructions plus a source
/// (the synthetic entry) and a super-sink; each stop node connects to the
/// super-sink with infinite capacity; each Unit Graph edge gets its PSE's
/// `weight` or infinity when it is not a PSE.
///
/// # Errors
///
/// Returns [`IrError::Continuation`] if no finite cut exists (cannot
/// happen for analyses produced by `ConvexCut`, which guarantees a finite
/// candidate on every path — this guards against inconsistent inputs).
pub fn select_active_set(
    analysis: &HandlerAnalysis,
    weights: &[u64],
) -> Result<Vec<PseId>, IrError> {
    let n = analysis.ug.len();
    let source = n; // stands in for ENTRY
    let sink = n + 1;
    let mut dinic = Dinic::new(n + 2);

    // Cap weights so that summing them can never reach INF.
    let cap_of = |pse: PseId| -> u64 { weights.get(pse).copied().unwrap_or(0).min(INF / 1024) };

    let mut handles = Vec::new(); // (pse, handle, from-node)
                                  // Entry edge.
    let entry_to = analysis.ug.start();
    match analysis.pses().iter().position(|p| p.edge.from == ENTRY && p.edge.to == entry_to) {
        Some(pse) => {
            let h = dinic.add_edge(source, entry_to, cap_of(pse));
            handles.push((pse, h, source));
        }
        None => {
            dinic.add_edge(source, entry_to, INF);
        }
    }

    // Real edges.
    for e in analysis.ug.edges() {
        match analysis.pse_for_edge(e) {
            Some(pse) => {
                let h = dinic.add_edge(e.from, e.to, cap_of(pse));
                handles.push((pse, h, e.from));
            }
            None => {
                dinic.add_edge(e.from, e.to, INF);
            }
        }
    }
    // Stop nodes drain into the super-sink.
    for s in analysis.stops.iter() {
        dinic.add_edge(s, sink, INF);
    }

    let flow = dinic.max_flow(source, sink);
    if flow >= INF {
        return Err(IrError::Continuation(
            "no finite cut separates the start node from the stop nodes".into(),
        ));
    }
    let side = dinic.min_cut_source_side(source);
    let mut active: Vec<PseId> = handles
        .iter()
        .filter(|(_, h, from)| dinic.edge_in_cut(*h, &side, *from))
        .map(|(pse, _, _)| *pse)
        .collect();
    active.sort_unstable();
    active.dedup();
    Ok(active)
}

/// A plan that splits at `pse` whenever control crosses it: the min cut
/// with `pse` free, the PSEs it is reachable from at a prohibitive weight
/// and every other PSE at 1 — plus `pse` itself, should that cut route
/// around it.
///
/// # Errors
///
/// As [`select_active_set`].
pub fn plan_through(analysis: &HandlerAnalysis, pse: PseId) -> Result<Vec<PseId>, IrError> {
    // Empty for the entry edge: nothing lies upstream of it.
    let upstream = analysis.ug.reaches(analysis.pses()[pse].edge.from);
    let weights: Vec<u64> = (0..analysis.pses().len())
        .map(|p| match p {
            _ if p == pse => 0,
            _ if upstream.contains(analysis.pses()[p].edge.to) => 1 << 32,
            _ => 1,
        })
        .collect();
    let mut plan = select_active_set(analysis, &weights)?;
    if !plan.contains(&pse) {
        plan.push(pse);
        plan.sort_unstable();
    }
    Ok(plan)
}

/// Computes per-PSE weights from profiled statistics under the given cost
/// model kind, falling back to static costs for unprofiled PSEs.
///
/// * [`RuntimeCostKind::DataSize`]: weight is the smoothed payload size in
///   bytes.
/// * [`RuntimeCostKind::ExecTime`]: weight is
///   `max(w_mod/speed_mod, (W_total − w_mod)/speed_demod)` in
///   microseconds — the §4.2 `max(T_mod, T_demod)` per-message balance
///   objective evaluated for *every* candidate edge from the single
///   profiled execution (work-to-edge plus measured total work).
pub fn runtime_weights(
    analysis: &HandlerAnalysis,
    kind: RuntimeCostKind,
    snapshot: &ProfileSnapshot,
) -> Vec<u64> {
    runtime_weights_with(analysis, kind, snapshot, 0.0)
}

/// Like [`runtime_weights`], additionally charging each side
/// `serialize_work_per_byte × payload size` of marshalling work when
/// pricing a candidate split under the execution-time model ("as well as
/// the actual data sizes passed across the network", §4.2).
pub fn runtime_weights_with(
    analysis: &HandlerAnalysis,
    kind: RuntimeCostKind,
    snapshot: &ProfileSnapshot,
    serialize_work_per_byte: f64,
) -> Vec<u64> {
    runtime_weights_opts(
        analysis,
        kind,
        snapshot,
        WeightOptions { serialize_work_per_byte, frequency_weighted: false },
    )
}

/// Options for [`runtime_weights_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightOptions {
    /// Marshalling work charged per payload byte on each side (exec-time
    /// model only).
    pub serialize_work_per_byte: f64,
    /// Scale each PSE's cost by its observed traversal frequency — the
    /// §2.3 path-sensitive optimization. The min cut then minimizes the
    /// *expected* cost per message instead of the per-traversal cost,
    /// which matters when target paths have very different hit rates
    /// (e.g. a filter that rejects most events).
    pub frequency_weighted: bool,
}

/// Fully-parameterized weight computation; see [`runtime_weights`].
pub fn runtime_weights_opts(
    analysis: &HandlerAnalysis,
    kind: RuntimeCostKind,
    snapshot: &ProfileSnapshot,
    options: WeightOptions,
) -> Vec<u64> {
    let serialize_work_per_byte = options.serialize_work_per_byte;
    let freq = |pse: PseId| -> f64 {
        if !options.frequency_weighted || snapshot.messages == 0 {
            return 1.0;
        }
        (snapshot.traversals[pse] as f64 / snapshot.messages as f64).min(1.0)
    };
    let static_weight = |pse: PseId| -> u64 {
        match &analysis.pses()[pse].static_cost {
            StaticCost::Known(k) => *k,
            StaticCost::LowerBounded { det, .. } => *det,
            StaticCost::Infinite => INF,
        }
    };
    (0..analysis.pses().len())
        .map(|pse| match kind {
            RuntimeCostKind::DataSize => snapshot.size[pse]
                .map(|s| (s * freq(pse)).round() as u64)
                .unwrap_or_else(|| static_weight(pse)),
            RuntimeCostKind::ExecTime => {
                let (Some(w_mod), Some(total)) = (snapshot.mod_work[pse], snapshot.total_work)
                else {
                    return static_weight(pse);
                };
                let speed_mod = snapshot.speed_mod.unwrap_or(1.0).max(1e-9);
                let speed_demod = snapshot.speed_demod.unwrap_or(1.0).max(1e-9);
                let ser = serialize_work_per_byte * snapshot.size[pse].unwrap_or(0.0);
                let w_demod = (total - w_mod).max(0.0);
                let t = ((w_mod + ser) / speed_mod).max((w_demod + ser) / speed_demod);
                // Scale seconds to microseconds for integer weights.
                (t * freq(pse) * 1e6).round() as u64
            }
        })
        .collect()
}

/// A proposed plan change emitted by the Reconfiguration Unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanUpdate {
    /// PSE ids whose split flags should be set (all others cleared).
    pub active: Vec<PseId>,
    /// The weights that produced this plan (diagnostics).
    pub weights: Vec<u64>,
}

/// The Runtime Reconfiguration Unit: owns the profiling statistics and
/// re-runs the min-cut when feedback triggers fire.
#[derive(Debug)]
pub struct ReconfigUnit {
    analysis: std::sync::Arc<HandlerAnalysis>,
    kind: RuntimeCostKind,
    profiling: ProfilingUnit,
    trigger: TriggerPolicy,
    serialize_work_per_byte: f64,
    frequency_weighted: bool,
    last_weights: Option<Vec<u64>>,
    messages_since: u64,
    reconfigurations: u64,
    /// Plan watched for epoch bumps the unit did not initiate (degradation
    /// fallback, operator installs); see [`with_plan_watch`](Self::with_plan_watch).
    watch: Option<PartitionPlan>,
    /// The newest epoch the unit's owner has acknowledged as one of *our*
    /// (or an expected) installs.
    expected_epoch: u64,
    obs: Option<ReconfigObs>,
}

/// Instruments registered by the Reconfiguration Unit on a shared hub.
#[derive(Debug)]
struct ReconfigObs {
    hub: std::sync::Arc<ObsHub>,
    reconfigurations: Counter,
    feedback_resets: Counter,
    cut_weight: Gauge,
}

impl ReconfigUnit {
    /// Creates a unit for `analysis` under cost-model `kind`.
    pub fn new(
        analysis: std::sync::Arc<HandlerAnalysis>,
        kind: RuntimeCostKind,
        trigger: TriggerPolicy,
    ) -> Self {
        let n = analysis.pses().len();
        ReconfigUnit {
            analysis,
            kind,
            profiling: ProfilingUnit::new(n, 0.5),
            trigger,
            serialize_work_per_byte: 0.0,
            frequency_weighted: false,
            last_weights: None,
            messages_since: 0,
            reconfigurations: 0,
            watch: None,
            expected_epoch: 0,
            obs: None,
        }
    }

    /// Accounts marshalling work (per wire byte, both sides) when pricing
    /// candidate splits under the execution-time model.
    pub fn with_serialize_cost(mut self, work_per_byte: f64) -> Self {
        self.serialize_work_per_byte = work_per_byte;
        self
    }

    /// Weights PSE costs by observed traversal frequency (§2.3's
    /// path-sensitive optimization): the min cut then minimizes expected
    /// cost per message.
    pub fn with_frequency_weighting(mut self, on: bool) -> Self {
        self.frequency_weighted = on;
        self
    }

    /// Registers the unit's instruments (`reconfigurations_total`,
    /// `feedback_window_resets_total`, `reconfig_cut_weight`) on `hub` and
    /// records every decision as a [`TraceEvent::Reconfig`].
    pub fn with_obs(mut self, hub: std::sync::Arc<ObsHub>) -> Self {
        let registry = hub.registry();
        self.obs = Some(ReconfigObs {
            reconfigurations: registry.counter("reconfigurations_total", &[]),
            feedback_resets: registry.counter("feedback_window_resets_total", &[]),
            cut_weight: registry.gauge("reconfig_cut_weight", &[]),
            hub,
        });
        self
    }

    /// Watches `plan` for epoch bumps the unit did not initiate.
    ///
    /// Plans can be switched behind the unit's back — the degradation
    /// controller installing the entry cut, an operator install. Profiled
    /// feedback accumulated under the superseded plan (split ratios, EWMA
    /// windows, the rate trigger's message count) then describes a plan
    /// that no longer exists, and without a reset the very next
    /// `maybe_reconfigure` could fire spuriously from that stale window.
    /// With a watch installed, an unacknowledged epoch advance clears the
    /// feedback window first (see
    /// [`acknowledge_epoch`](Self::acknowledge_epoch)).
    pub fn with_plan_watch(mut self, plan: PartitionPlan) -> Self {
        self.expected_epoch = plan.epoch();
        self.watch = Some(plan);
        self
    }

    /// Marks `epoch` (and everything older) as an expected plan install —
    /// one this unit produced, or one its owner deliberately applied.
    /// Expected installs do not reset the feedback window.
    pub fn acknowledge_epoch(&mut self, epoch: u64) {
        self.expected_epoch = self.expected_epoch.max(epoch);
    }

    /// Detects an unacknowledged plan switch and, if one happened, resets
    /// the feedback window so EWMA state from the superseded plan cannot
    /// trigger an immediate spurious reconfiguration. Returns `true` when
    /// a reset occurred.
    fn reset_if_plan_switched(&mut self) -> bool {
        let Some(watch) = &self.watch else {
            return false;
        };
        let epoch = watch.epoch();
        if epoch <= self.expected_epoch {
            return false;
        }
        self.expected_epoch = epoch;
        self.messages_since = 0;
        self.profiling.reset_window();
        // Re-baseline the diff trigger at the current weights: "change"
        // is measured from the moment of the switch, not from the last
        // feedback under the old plan.
        self.last_weights = Some(self.current_weights());
        if let Some(obs) = &self.obs {
            obs.feedback_resets.inc();
            obs.hub.record(TraceEvent::FeedbackReset { epoch });
        }
        true
    }

    /// Replaces the EWMA smoothing factor (default 0.5). Smaller values
    /// damp noisy profiles; larger values adapt faster.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        let n = self.analysis.pses().len();
        self.profiling = ProfilingUnit::new(n, alpha);
        self
    }

    /// Number of plan re-selections performed so far.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Read access to the owned profiling unit.
    pub fn profiling(&self) -> &ProfilingUnit {
        &self.profiling
    }

    /// Feeds one message's modulator-side profile.
    pub fn record_mod(&mut self, profile: ModMessageProfile) {
        self.profiling.record_mod(profile);
        self.messages_since += 1;
    }

    /// Feeds one message's demodulator-side profile.
    pub fn record_demod(&mut self, profile: DemodMessageProfile) {
        self.profiling.record_demod(profile);
    }

    /// Feeds loose per-PSE observations (the demodulator's suffix
    /// profiling samples).
    pub fn record_samples(&mut self, samples: &[crate::profile::PseSample]) {
        self.profiling.record_samples(samples);
    }

    /// Checks the feedback trigger and, if it fires and the weights moved,
    /// re-selects the optimal partition.
    ///
    /// # Errors
    ///
    /// Propagates [`select_active_set`] failures.
    pub fn maybe_reconfigure(&mut self) -> Result<Option<PlanUpdate>, IrError> {
        if self.reset_if_plan_switched() {
            return Ok(None);
        }
        let window = self.messages_since;
        let weights = self.current_weights();
        let max_rel_change = match &self.last_weights {
            None => f64::INFINITY,
            Some(last) => weights
                .iter()
                .zip(last)
                .map(|(&w, &l)| {
                    let base = l.max(1) as f64;
                    ((w as f64 - l as f64).abs()) / base
                })
                .fold(0.0, f64::max),
        };
        if !self.trigger.fires(self.messages_since, max_rel_change) {
            return Ok(None);
        }
        self.messages_since = 0;
        self.last_weights = Some(weights.clone());
        let active = select_active_set(&self.analysis, &weights)?;
        self.reconfigurations += 1;
        self.observe_decision(&active, &weights, window);
        Ok(Some(PlanUpdate { active, weights }))
    }

    /// Records one produced [`PlanUpdate`] on the registered hub.
    fn observe_decision(&self, active: &[PseId], weights: &[u64], window: u64) {
        let Some(obs) = &self.obs else {
            return;
        };
        let cut_weight: f64 =
            active.iter().filter_map(|&p| weights.get(p)).map(|&w| w as f64).sum();
        obs.reconfigurations.inc();
        obs.cut_weight.set(cut_weight);
        obs.hub.record(TraceEvent::Reconfig {
            active_mask: pse_mask(active),
            cut_weight,
            messages: window,
        });
    }

    /// Per-PSE weights under the current statistics and options.
    fn current_weights(&self) -> Vec<u64> {
        runtime_weights_opts(
            &self.analysis,
            self.kind,
            &self.profiling.snapshot(),
            WeightOptions {
                serialize_work_per_byte: self.serialize_work_per_byte,
                frequency_weighted: self.frequency_weighted,
            },
        )
    }

    /// Unconditionally re-selects the plan from current statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`select_active_set`] failures.
    pub fn force_reconfigure(&mut self) -> Result<PlanUpdate, IrError> {
        let window = self.messages_since;
        let weights = self.current_weights();
        self.messages_since = 0;
        self.last_weights = Some(weights.clone());
        let active = select_active_set(&self.analysis, &weights)?;
        self.reconfigurations += 1;
        self.observe_decision(&active, &weights, window);
        Ok(PlanUpdate { active, weights })
    }
}

/// Tunables for the post-commit canary window (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Envelopes the guard watches after a commit before promoting.
    pub canary: u64,
    /// Allowed regression over the pre-switch baseline, in percent: an
    /// error-rate rise of more than `breach_pct / 100` absolute, or a mean
    /// per-envelope work growth beyond `1 + breach_pct / 100` relative,
    /// rolls the plan back.
    pub breach_pct: f64,
    /// Reconfiguration evaluations a quarantined active set stays on the
    /// blacklist before it may be re-picked.
    pub quarantine_decay: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { canary: 16, breach_pct: 25.0, quarantine_decay: 32 }
    }
}

/// Error/work accumulators over a stretch of envelopes, comparable
/// between the pre-switch baseline and the canary window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Envelopes observed.
    pub envelopes: u64,
    /// Envelopes that erred (handler trap, validation failure).
    pub errors: u64,
    /// Total work units (latency proxy) across observed envelopes.
    pub work: u64,
}

impl GuardStats {
    fn record(&mut self, ok: bool, work: u64) {
        self.envelopes += 1;
        self.errors += u64::from(!ok);
        self.work = self.work.saturating_add(work);
    }

    /// Fraction of observed envelopes that erred (0 when empty).
    pub fn error_rate(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.errors as f64 / self.envelopes as f64
        }
    }

    /// Mean work units per envelope (0 when empty).
    pub fn mean_work(&self) -> f64 {
        if self.envelopes == 0 {
            0.0
        } else {
            self.work as f64 / self.envelopes as f64
        }
    }
}

/// What the guard concluded from one observed envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardVerdict {
    /// No canary in progress; the envelope fed the baseline.
    Idle,
    /// Canary in progress, no breach yet; `remaining` more envelopes
    /// until promotion.
    Watching {
        /// Envelopes left in the window.
        remaining: u64,
    },
    /// The canary window completed without a breach: the plan is trusted
    /// and its window statistics become the new baseline.
    Promoted {
        /// The promoted plan's epoch.
        epoch: u64,
    },
    /// The guard breached: the owner must reinstall the prior plan and
    /// quarantine the offender.
    Rollback {
        /// Epoch serving before the breaching commit.
        prior_epoch: u64,
        /// Active set serving before the breaching commit (the rollback
        /// target when plan retention no longer holds `prior_epoch`).
        prior_active: Vec<PseId>,
        /// The breaching plan's epoch.
        from_epoch: u64,
        /// The breaching active set (to quarantine).
        active: Vec<PseId>,
        /// Envelopes observed before the breach fired.
        observed: u64,
    },
}

/// One in-flight canary window.
#[derive(Debug, Clone)]
struct CanaryWindow {
    prior_epoch: u64,
    prior_active: Vec<PseId>,
    epoch: u64,
    active: Vec<PseId>,
    remaining: u64,
    window: GuardStats,
    baseline: GuardStats,
}

/// Watches the first K envelopes after a plan commit and compares their
/// error rate and mean work against the pre-switch baseline; a breach
/// demands rollback (tentpole part 2). Outside a canary the guard simply
/// accumulates the serving plan's baseline.
#[derive(Debug)]
pub struct PlanGuard {
    config: GuardConfig,
    baseline: GuardStats,
    canary: Option<CanaryWindow>,
}

impl PlanGuard {
    /// Creates an idle guard.
    pub fn new(config: GuardConfig) -> Self {
        PlanGuard { config, baseline: GuardStats::default(), canary: None }
    }

    /// The guard's tunables.
    pub fn config(&self) -> GuardConfig {
        self.config
    }

    /// Whether a canary window is in progress.
    pub fn in_canary(&self) -> bool {
        self.canary.is_some()
    }

    /// The in-flight window as `(prior_epoch, prior_active, epoch,
    /// remaining)` for journaling, or `None` when idle.
    pub fn canary_state(&self) -> Option<(u64, &[PseId], u64, u64)> {
        self.canary
            .as_ref()
            .map(|c| (c.prior_epoch, c.prior_active.as_slice(), c.epoch, c.remaining))
    }

    /// Opens a canary window for the commit of `epoch`/`active`, retaining
    /// `prior_epoch`/`prior_active` as the rollback target. The current
    /// baseline is snapshotted for comparison; a window already in
    /// progress is replaced.
    pub fn begin_canary(
        &mut self,
        prior_epoch: u64,
        prior_active: Vec<PseId>,
        epoch: u64,
        active: Vec<PseId>,
    ) {
        self.canary = Some(CanaryWindow {
            prior_epoch,
            prior_active,
            epoch,
            active,
            remaining: self.config.canary.max(1),
            window: GuardStats::default(),
            baseline: self.baseline,
        });
    }

    /// Reopens a journaled canary window after restart/migration. The
    /// pre-crash baseline is gone, so the resumed window compares against
    /// an empty baseline (strictest interpretation: any regression
    /// breaches).
    pub fn resume_canary(
        &mut self,
        prior_epoch: u64,
        prior_active: Vec<PseId>,
        epoch: u64,
        remaining: u64,
        active: Vec<PseId>,
    ) {
        self.canary = Some(CanaryWindow {
            prior_epoch,
            prior_active,
            epoch,
            active,
            remaining: remaining.max(1),
            window: GuardStats::default(),
            baseline: self.baseline,
        });
    }

    /// Feeds one envelope outcome (`ok`, its work units) and returns the
    /// guard's verdict. On [`GuardVerdict::Rollback`] the window is closed
    /// and the baseline keeps describing the prior plan; on
    /// [`GuardVerdict::Promoted`] the window statistics replace the
    /// baseline.
    pub fn observe(&mut self, ok: bool, work: u64) -> GuardVerdict {
        let Some(canary) = &mut self.canary else {
            self.baseline.record(ok, work);
            return GuardVerdict::Idle;
        };
        canary.window.record(ok, work);
        canary.remaining = canary.remaining.saturating_sub(1);
        let margin = self.config.breach_pct / 100.0;
        let error_breach = canary.window.errors > 0
            && canary.window.error_rate() > canary.baseline.error_rate() + margin;
        // Mean work needs a few samples before it is meaningful, and a
        // comparison target at all.
        let work_samples = self.config.canary.clamp(1, 4);
        let work_breach = canary.baseline.envelopes > 0
            && canary.window.envelopes >= work_samples
            && canary.window.mean_work() > canary.baseline.mean_work() * (1.0 + margin);
        if error_breach || work_breach {
            let canary = self.canary.take().expect("canary in progress");
            return GuardVerdict::Rollback {
                prior_epoch: canary.prior_epoch,
                prior_active: canary.prior_active,
                from_epoch: canary.epoch,
                active: canary.active,
                observed: canary.window.envelopes,
            };
        }
        if canary.remaining == 0 {
            let canary = self.canary.take().expect("canary in progress");
            self.baseline = canary.window;
            return GuardVerdict::Promoted { epoch: canary.epoch };
        }
        GuardVerdict::Watching { remaining: canary.remaining }
    }
}

/// A decaying blacklist of active sets that breached their canary: the
/// owner consults it before applying a [`PlanUpdate`] so the selector
/// cannot immediately re-pick a just-rolled-back plan. Entries expire
/// after a fixed number of [`decay`](Self::decay) calls (one per
/// reconfiguration evaluation that produced an update).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineList {
    entries: Vec<(Vec<PseId>, u32)>,
}

impl QuarantineList {
    /// An empty list.
    pub fn new() -> Self {
        QuarantineList::default()
    }

    /// Rebuilds a list from journaled `(active, ttl)` entries.
    pub fn restore(entries: Vec<(Vec<PseId>, u32)>) -> Self {
        let mut list = QuarantineList::new();
        for (active, ttl) in entries {
            list.quarantine(&active, ttl);
        }
        list
    }

    /// Blacklists `active` for `ttl` decay steps (refreshes the ttl if
    /// already present). A zero ttl is ignored.
    pub fn quarantine(&mut self, active: &[PseId], ttl: u32) {
        if ttl == 0 {
            return;
        }
        let key = normalized(active);
        match self.entries.iter_mut().find(|(set, _)| *set == key) {
            Some((_, existing)) => *existing = (*existing).max(ttl),
            None => self.entries.push((key, ttl)),
        }
    }

    /// Whether `active` is currently blacklisted.
    pub fn contains(&self, active: &[PseId]) -> bool {
        let key = normalized(active);
        self.entries.iter().any(|(set, _)| *set == key)
    }

    /// Ages every entry by one step, dropping the expired.
    pub fn decay(&mut self) {
        for (_, ttl) in &mut self.entries {
            *ttl -= 1;
        }
        self.entries.retain(|(_, ttl)| *ttl > 0);
    }

    /// Current entries as `(active, remaining-ttl)` for journaling.
    pub fn entries(&self) -> &[(Vec<PseId>, u32)] {
        &self.entries
    }

    /// Number of blacklisted sets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the blacklist is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Active sets compare as sorted id lists regardless of input order.
fn normalized(active: &[PseId]) -> Vec<PseId> {
    let mut key = active.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PseSample;
    use mpart_analysis::analyze;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;
    use std::sync::Arc;

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

    fn analysis() -> Arc<HandlerAnalysis> {
        let program = parse_program(SRC).unwrap();
        Arc::new(analyze(&program, "push", &DataSizeModel::new()).unwrap())
    }

    #[test]
    fn min_cut_picks_cheapest_cut_per_path() {
        let ha = analysis();
        // Three PSEs: entry (raw event), post-resize, skip-return.
        // Make the post-resize edge cheap: the cut should split there on
        // the main path and at the free skip edge on the filter path.
        let entry = ha.pses().iter().position(|p| p.edge.is_entry()).unwrap();
        let mut weights = vec![0u64; ha.pses().len()];
        weights[entry] = 1000;
        for (i, p) in ha.pses().iter().enumerate() {
            if !p.edge.is_entry() {
                weights[i] = if p.inter.is_empty() { 0 } else { 10 };
            }
        }
        let active = select_active_set(&ha, &weights).unwrap();
        assert!(!active.contains(&entry), "expensive entry not cut: {active:?}");
        // Validity: the returned set covers every path.
        let plan = crate::plan::PartitionPlan::new(ha.pses().len()).unwrap();
        plan.install(&active);
        plan.validate_cut(&ha).unwrap();
    }

    #[test]
    fn expensive_downstream_prefers_entry() {
        let ha = analysis();
        let entry = ha.pses().iter().position(|p| p.edge.is_entry()).unwrap();
        let mut weights = vec![10_000u64; ha.pses().len()];
        weights[entry] = 1;
        // Skip edge stays free so the filter path uses it.
        for (i, p) in ha.pses().iter().enumerate() {
            if p.inter.is_empty() && !p.edge.is_entry() {
                weights[i] = 0;
            }
        }
        let active = select_active_set(&ha, &weights).unwrap();
        assert!(active.contains(&entry), "{active:?}");
    }

    #[test]
    fn runtime_weights_fall_back_to_static() {
        let ha = analysis();
        let unit = ProfilingUnit::new(ha.pses().len(), 0.5);
        let weights = runtime_weights(&ha, RuntimeCostKind::DataSize, &unit.snapshot());
        assert_eq!(weights.len(), ha.pses().len());
        // Skip edge (empty INTER) statically costs 0.
        let skip = ha.pses().iter().position(|p| p.inter.is_empty()).unwrap();
        assert_eq!(weights[skip], 0);
    }

    #[test]
    fn reconfigures_when_sizes_flip() {
        let ha = analysis();
        let entry = ha.pses().iter().position(|p| p.edge.is_entry()).unwrap();
        let main =
            ha.pses().iter().position(|p| !p.edge.is_entry() && !p.inter.is_empty()).unwrap();
        let mut unit =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Rate(1));

        // Phase 1: big raw event, small processed result -> split late.
        for _ in 0..5 {
            unit.record_mod(ModMessageProfile {
                samples: vec![
                    PseSample {
                        pse: entry,
                        mod_work: 0,
                        payload_bytes: Some(40_000),
                        was_split: false,
                    },
                    PseSample {
                        pse: main,
                        mod_work: 50,
                        payload_bytes: Some(10_000),
                        was_split: true,
                    },
                ],
                split: main,
                mod_work: 50,
                t_mod: None,
            });
        }
        let update = unit.maybe_reconfigure().unwrap().expect("trigger fires");
        assert!(update.active.contains(&main), "{update:?}");
        assert!(!update.active.contains(&entry));

        // Phase 2: small raw event (upsampling case) -> ship raw, split at entry.
        for _ in 0..20 {
            unit.record_mod(ModMessageProfile {
                samples: vec![
                    PseSample {
                        pse: entry,
                        mod_work: 0,
                        payload_bytes: Some(6_400),
                        was_split: false,
                    },
                    PseSample {
                        pse: main,
                        mod_work: 50,
                        payload_bytes: Some(25_600),
                        was_split: true,
                    },
                ],
                split: main,
                mod_work: 50,
                t_mod: None,
            });
        }
        let update2 = unit.maybe_reconfigure().unwrap().expect("trigger fires again");
        assert!(update2.active.contains(&entry), "{update2:?}");
        assert_eq!(unit.reconfigurations(), 2);
    }

    #[test]
    fn diff_trigger_suppresses_stable_feedback() {
        let ha = analysis();
        let main =
            ha.pses().iter().position(|p| !p.edge.is_entry() && !p.inter.is_empty()).unwrap();
        let mut unit =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Diff(0.5));
        let feed = |unit: &mut ReconfigUnit, bytes: u64| {
            unit.record_mod(ModMessageProfile {
                samples: vec![PseSample {
                    pse: main,
                    mod_work: 10,
                    payload_bytes: Some(bytes),
                    was_split: true,
                }],
                split: main,
                mod_work: 10,
                t_mod: None,
            });
        };
        feed(&mut unit, 1000);
        // First call always fires (no prior weights).
        assert!(unit.maybe_reconfigure().unwrap().is_some());
        for _ in 0..10 {
            feed(&mut unit, 1010);
            assert!(unit.maybe_reconfigure().unwrap().is_none(), "stable data");
        }
        for _ in 0..10 {
            feed(&mut unit, 40_000);
        }
        assert!(unit.maybe_reconfigure().unwrap().is_some(), "big shift fires");
    }

    #[test]
    fn frequency_weighting_prefers_filtered_paths() {
        // A filter rejects 90% of events. Shipping raw costs 1000 B on
        // every message; splitting late costs 5000 B but only for the 10%
        // that pass. Per-traversal weights pick "ship raw"; expected-cost
        // weights pick the late split.
        let ha = analysis();
        let entry = ha.pses().iter().position(|p| p.edge.is_entry()).unwrap();
        let main =
            ha.pses().iter().position(|p| !p.edge.is_entry() && !p.inter.is_empty()).unwrap();
        let mut unit =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Rate(1))
                .with_frequency_weighting(true);
        let mut plain =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Rate(1));
        for i in 0..40 {
            let passes = i % 10 == 0;
            let mut samples = vec![PseSample {
                pse: entry,
                mod_work: 0,
                payload_bytes: Some(1000),
                was_split: false,
            }];
            if passes {
                samples.push(PseSample {
                    pse: main,
                    mod_work: 50,
                    payload_bytes: Some(5000),
                    was_split: true,
                });
            }
            let profile = ModMessageProfile {
                samples,
                split: if passes { main } else { entry },
                mod_work: 50,
                t_mod: None,
            };
            unit.record_mod(profile.clone());
            plain.record_mod(profile);
        }
        let weighted = unit.force_reconfigure().unwrap();
        let unweighted = plain.force_reconfigure().unwrap();
        assert!(
            weighted.active.contains(&main),
            "expected-cost weighting splits late: {weighted:?}"
        );
        assert!(
            unweighted.active.contains(&entry),
            "per-traversal weighting ships raw: {unweighted:?}"
        );
    }

    #[test]
    fn external_plan_switch_resets_feedback_window() {
        // Regression: feedback accumulated under a superseded plan must
        // not trigger an immediate reconfiguration right after an epoch
        // bump the unit did not initiate (e.g. the degradation fallback).
        let ha = analysis();
        let main =
            ha.pses().iter().position(|p| !p.edge.is_entry() && !p.inter.is_empty()).unwrap();
        let plan = crate::plan::PartitionPlan::new(ha.pses().len()).unwrap();
        plan.install(&[main]);
        let mut unit =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Rate(3))
                .with_plan_watch(plan.clone());
        unit.acknowledge_epoch(plan.epoch());
        let feed = |unit: &mut ReconfigUnit| {
            unit.record_mod(ModMessageProfile {
                samples: vec![PseSample {
                    pse: main,
                    mod_work: 10,
                    payload_bytes: Some(1000),
                    was_split: true,
                }],
                split: main,
                mod_work: 10,
                t_mod: None,
            });
        };
        // Enough messages for the rate trigger to be primed...
        for _ in 0..3 {
            feed(&mut unit);
        }
        assert!(unit.profiling().pending_mod_profiles() > 0);
        // ...then the plan switches behind the unit's back (epoch bump).
        let external_epoch = plan.install(&[main]);
        assert!(external_epoch > 0);
        // The primed window is discarded instead of firing.
        assert!(unit.maybe_reconfigure().unwrap().is_none(), "stale window must not fire");
        assert_eq!(unit.profiling().pending_mod_profiles(), 0, "stale mod halves dropped");
        assert_eq!(unit.reconfigurations(), 0);
        // Feedback gathered under the *new* plan fires normally.
        for _ in 0..3 {
            feed(&mut unit);
        }
        assert!(unit.maybe_reconfigure().unwrap().is_some(), "fresh window fires");
        assert_eq!(unit.reconfigurations(), 1);
        // Acknowledged installs (our own updates) do not reset the window.
        for _ in 0..3 {
            feed(&mut unit);
        }
        let own_epoch = plan.install(&[main]);
        unit.acknowledge_epoch(own_epoch);
        assert!(unit.maybe_reconfigure().unwrap().is_some(), "acknowledged install keeps window");
    }

    #[test]
    fn without_plan_watch_behavior_is_unchanged() {
        let ha = analysis();
        let main =
            ha.pses().iter().position(|p| !p.edge.is_entry() && !p.inter.is_empty()).unwrap();
        let mut unit =
            ReconfigUnit::new(Arc::clone(&ha), RuntimeCostKind::DataSize, TriggerPolicy::Rate(1));
        unit.record_mod(ModMessageProfile {
            samples: vec![PseSample {
                pse: main,
                mod_work: 10,
                payload_bytes: Some(1000),
                was_split: true,
            }],
            split: main,
            mod_work: 10,
            t_mod: None,
        });
        assert!(unit.maybe_reconfigure().unwrap().is_some());
    }

    #[test]
    fn per_byte_exec_time_weight_is_bytes_plus_the_busier_side() {
        // With no speed estimates, the exec-time weight with a per-byte
        // charge β prices a PSE at β·bytes + max(w_mod, w_demod): bytes on
        // the link plus the slower side's work, in microsecond units.
        let ha = analysis();
        let n = ha.pses().len();
        let beta = 0.05;
        let total = 9_000.0;
        let snapshot = ProfileSnapshot {
            size: (0..n).map(|i| Some(137.0 + 4_099.0 * i as f64)).collect(),
            mod_work: (0..n).map(|i| Some((i as f64 * 2_311.5) % total)).collect(),
            traversals: vec![1; n],
            total_work: Some(total),
            speed_mod: None,
            speed_demod: None,
            messages: 1,
        };
        let options = WeightOptions { serialize_work_per_byte: beta, frequency_weighted: false };
        let weights = runtime_weights_opts(&ha, RuntimeCostKind::ExecTime, &snapshot, options);
        for (pse, &weight) in weights.iter().enumerate() {
            let (size, w_mod) = (snapshot.size[pse].unwrap(), snapshot.mod_work[pse].unwrap());
            let expect = ((beta * size + w_mod.max(total - w_mod)) * 1e6).round() as u64;
            assert_eq!(weight, expect, "PSE {pse}");
        }
        assert_eq!(weights.len(), n);
    }

    #[test]
    fn guard_promotes_after_clean_canary() {
        let mut guard = PlanGuard::new(GuardConfig { canary: 3, ..GuardConfig::default() });
        // Baseline under the old plan.
        for _ in 0..8 {
            assert_eq!(guard.observe(true, 10), GuardVerdict::Idle);
        }
        guard.begin_canary(1, vec![0], 2, vec![1]);
        assert!(guard.in_canary());
        assert_eq!(guard.observe(true, 10), GuardVerdict::Watching { remaining: 2 });
        assert_eq!(guard.observe(true, 11), GuardVerdict::Watching { remaining: 1 });
        assert_eq!(guard.observe(true, 10), GuardVerdict::Promoted { epoch: 2 });
        assert!(!guard.in_canary());
        // Promotion replaced the baseline with the window statistics.
        assert_eq!(guard.observe(true, 10), GuardVerdict::Idle);
    }

    #[test]
    fn guard_rolls_back_on_error_breach() {
        let mut guard =
            PlanGuard::new(GuardConfig { canary: 8, breach_pct: 25.0, ..GuardConfig::default() });
        for _ in 0..10 {
            guard.observe(true, 10); // clean baseline: 0% errors
        }
        guard.begin_canary(3, vec![0, 2], 4, vec![1]);
        assert_eq!(guard.observe(true, 10), GuardVerdict::Watching { remaining: 7 });
        // One error over two envelopes → 50% > 0% + 25% margin.
        let verdict = guard.observe(false, 10);
        assert_eq!(
            verdict,
            GuardVerdict::Rollback {
                prior_epoch: 3,
                prior_active: vec![0, 2],
                from_epoch: 4,
                active: vec![1],
                observed: 2,
            }
        );
        assert!(!guard.in_canary());
    }

    #[test]
    fn guard_rolls_back_on_work_breach() {
        let mut guard =
            PlanGuard::new(GuardConfig { canary: 8, breach_pct: 25.0, ..GuardConfig::default() });
        for _ in 0..10 {
            guard.observe(true, 100);
        }
        guard.begin_canary(1, vec![0], 2, vec![1]);
        // Work breach waits for min(canary, 4) samples, then compares
        // mean work: 200 > 100 * 1.25.
        for _ in 0..3 {
            assert!(matches!(guard.observe(true, 200), GuardVerdict::Watching { .. }));
        }
        assert!(matches!(guard.observe(true, 200), GuardVerdict::Rollback { .. }));
    }

    #[test]
    fn guard_without_baseline_skips_work_breach() {
        // A resumed canary after restart has no baseline; elevated work
        // alone must not breach (nothing to compare against), but errors
        // still do.
        let mut guard = PlanGuard::new(GuardConfig { canary: 4, ..GuardConfig::default() });
        guard.resume_canary(1, vec![0], 2, 4, vec![1]);
        for _ in 0..3 {
            assert!(matches!(guard.observe(true, 1_000_000), GuardVerdict::Watching { .. }));
        }
        assert!(matches!(guard.observe(true, 1_000_000), GuardVerdict::Promoted { epoch: 2 }));
        guard.resume_canary(1, vec![0], 2, 4, vec![1]);
        assert!(matches!(guard.observe(false, 10), GuardVerdict::Rollback { .. }));
    }

    #[test]
    fn quarantine_suppresses_until_decay() {
        let mut list = QuarantineList::new();
        list.quarantine(&[2, 0], 2);
        // Order-insensitive membership.
        assert!(list.contains(&[0, 2]));
        assert!(!list.contains(&[0]));
        assert_eq!(list.len(), 1);
        list.decay();
        assert!(list.contains(&[0, 2]), "survives one step of a two-step ttl");
        list.decay();
        assert!(!list.contains(&[0, 2]), "expired after ttl decay steps");
        assert!(list.is_empty());
        // Zero ttl is a no-op; refresh takes the max ttl.
        list.quarantine(&[1], 0);
        assert!(list.is_empty());
        list.quarantine(&[1], 1);
        list.quarantine(&[1], 5);
        list.decay();
        assert!(list.contains(&[1]), "refresh extended the ttl");
        // ...and a shorter re-quarantine never shortens it.
        let mut list = QuarantineList::new();
        list.quarantine(&[1], 5);
        list.quarantine(&[1], 1);
        list.decay();
        list.decay();
        assert!(list.contains(&[1]), "refresh keeps the longer ttl");
        let restored = QuarantineList::restore(list.entries().to_vec());
        assert!(restored.contains(&[1]));
    }
}
