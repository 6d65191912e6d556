//! The handler's observability surface: named instruments for the paper's
//! runtime mechanisms.
//!
//! Every [`PartitionedHandler`](crate::partitioned::PartitionedHandler)
//! owns an [`ObsHub`] (metrics registry + trace ring) and a
//! [`HandlerMetrics`] bundle of pre-registered instrument handles, so the
//! modulator/demodulator hot paths update plain atomics without a
//! registry lookup. Each metric is catalogued in `OBSERVABILITY.md`.

use mpart_obs::{Counter, Gauge, Histogram, ObsHub, PlanReason, Registry, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::PseId;

/// Sentinel for "no split observed yet" in [`HandlerMetrics::note_split`].
const NO_SPLIT: u64 = u64::MAX;

/// Pre-registered instrument handles for one partitioned handler.
///
/// Created at analysis time from the handler's [`ObsHub`]; the modulator,
/// demodulator, plan installer, and health tracker all update through
/// these shared handles.
#[derive(Debug)]
pub struct HandlerMetrics {
    /// `continuations_sent_total{pse}` — messages the modulator split at
    /// each PSE.
    continuations_sent: Vec<Counter>,
    /// `continuations_resumed_total{pse}` — messages the demodulator
    /// resumed at each PSE.
    continuations_resumed: Vec<Counter>,
    /// `envelope_bytes` — wire size of packed continuation messages.
    envelope_bytes: Histogram,
    /// `mod_work_units` — sender-side work per message.
    mod_work: Histogram,
    /// `demod_work_units` — receiver-side work per message.
    demod_work: Histogram,
    /// `profile_work_units_total` — cumulative cost of the §2.5
    /// conditional profiling probes (both sides).
    profile_work_total: Counter,
    /// `plan_switch_total{reason}` — installs by [`PlanReason`].
    plan_switch: [Counter; 6],
    /// `plan_prepares_total{outcome}` — two-phase install prepare steps
    /// by outcome (`[ready, rejected, quarantined, timeout]`).
    plan_prepares: [Counter; 4],
    /// `plan_rollbacks_total{reason}` — canary rollbacks (guard breach).
    plan_rollbacks: Counter,
    /// `plans_quarantined` — active sets currently on the decaying
    /// quarantine blacklist.
    plans_quarantined: Gauge,
    /// `plan_epoch` — the current plan generation.
    plan_epoch: Gauge,
    /// `stale_plan_rejected_total` — continuations refused because their
    /// epoch predates the retained plan history.
    stale_rejected: Counter,
    /// `degradations_total` — Healthy → Degraded transitions.
    degradations: Counter,
    /// `promotions_total` — Degraded → Healthy transitions.
    promotions: Counter,
    /// `degraded_seconds` — cumulative wall-clock time spent degraded.
    degraded_seconds: Gauge,
    /// `degraded` — 1 while the entry-cut fallback is forced, else 0.
    degraded: Gauge,
    /// `engine_dispatch_total{engine}` — modulator runs and demodulator
    /// resumes executed by each engine (`[interp, compiled]`).
    engine_dispatch: [Counter; 2],
    /// `compiled_bodies_total` — bodies accepted by the bytecode compiler
    /// across engine builds.
    compiled_bodies: Counter,
    /// `compile_fallbacks_total` — bodies the compiler declined to the
    /// interpreter fallback across engine builds.
    compile_fallbacks: Counter,
    /// `receiver_heap_cells` — cells on the receiver context's heap after
    /// the last envelope's release.
    receiver_heap_cells: Gauge,
    /// Last split PSE seen by [`note_split`](Self::note_split)
    /// ([`NO_SPLIT`] before the first message).
    last_split: AtomicU64,
}

impl HandlerMetrics {
    /// Registers every handler-level instrument on `registry`.
    pub(crate) fn register(registry: &Registry, n_pses: usize) -> Self {
        let per_pse = |name: &str| -> Vec<Counter> {
            (0..n_pses).map(|p| registry.counter(name, &[("pse", &p.to_string())])).collect()
        };
        // Byte sizes up to 16 MiB, work units up to ~1M per message.
        let byte_bounds: Vec<u64> = (0..=24).map(|e| 1u64 << e).collect();
        let work_bounds: Vec<u64> = (0..=20).map(|e| 1u64 << e).collect();
        let plan_switch = PlanReason::all()
            .map(|r| registry.counter("plan_switch_total", &[("reason", r.as_str())]));
        HandlerMetrics {
            continuations_sent: per_pse("continuations_sent_total"),
            continuations_resumed: per_pse("continuations_resumed_total"),
            envelope_bytes: registry.histogram("envelope_bytes", &[], &byte_bounds),
            mod_work: registry.histogram("mod_work_units", &[], &work_bounds),
            demod_work: registry.histogram("demod_work_units", &[], &work_bounds),
            profile_work_total: registry.counter("profile_work_units_total", &[]),
            plan_switch,
            plan_prepares: ["ready", "rejected", "quarantined", "timeout"]
                .map(|o| registry.counter("plan_prepares_total", &[("outcome", o)])),
            plan_rollbacks: registry.counter("plan_rollbacks_total", &[("reason", "guard")]),
            plans_quarantined: registry.gauge("plans_quarantined", &[]),
            plan_epoch: registry.gauge("plan_epoch", &[]),
            stale_rejected: registry.counter("stale_plan_rejected_total", &[]),
            degradations: registry.counter("degradations_total", &[]),
            promotions: registry.counter("promotions_total", &[]),
            degraded_seconds: registry.gauge("degraded_seconds", &[]),
            degraded: registry.gauge("degraded", &[]),
            engine_dispatch: [
                registry.counter("engine_dispatch_total", &[("engine", "interp")]),
                registry.counter("engine_dispatch_total", &[("engine", "compiled")]),
            ],
            compiled_bodies: registry.counter("compiled_bodies_total", &[]),
            compile_fallbacks: registry.counter("compile_fallbacks_total", &[]),
            receiver_heap_cells: registry.gauge("receiver_heap_cells", &[]),
            last_split: AtomicU64::new(NO_SPLIT),
        }
    }

    /// Records one modulator run: the split PSE, the packed envelope
    /// size, and the work split between handler prefix and profiling
    /// probes. Emits a [`TraceEvent::PseActivated`] when the split moved
    /// to a PSE the previous message did not use.
    pub fn note_mod_run(
        &self,
        hub: &ObsHub,
        pse: PseId,
        epoch: u64,
        envelope_bytes: u64,
        mod_work: u64,
        profile_work: u64,
    ) {
        if let Some(c) = self.continuations_sent.get(pse) {
            c.inc();
        }
        self.envelope_bytes.observe(envelope_bytes);
        self.mod_work.observe(mod_work);
        self.profile_work_total.add(profile_work);
        self.note_split(hub, pse, epoch);
    }

    /// Records one demodulator run.
    pub fn note_demod_run(&self, pse: PseId, demod_work: u64, profile_work: u64) {
        if let Some(c) = self.continuations_resumed.get(pse) {
            c.inc();
        }
        self.demod_work.observe(demod_work);
        self.profile_work_total.add(profile_work);
    }

    /// Records a plan install.
    pub fn note_plan_switch(&self, reason: PlanReason, epoch: u64) {
        self.plan_switch[reason_index(reason)].inc();
        self.plan_epoch.set(epoch as f64);
    }

    /// Records one two-phase prepare step by its outcome label
    /// (`ready`/`rejected`/`quarantined`/`timeout`).
    pub fn note_prepare(&self, outcome: &str) {
        let index = match outcome {
            "ready" => 0,
            "rejected" => 1,
            "quarantined" => 2,
            _ => 3,
        };
        self.plan_prepares[index].inc();
    }

    /// Records one guard-breach rollback.
    pub fn note_rollback(&self) {
        self.plan_rollbacks.inc();
    }

    /// Publishes the current quarantine-blacklist size.
    pub fn note_quarantine_size(&self, entries: usize) {
        self.plans_quarantined.set(entries as f64);
    }

    /// Records a stale-epoch rejection.
    pub fn note_stale_rejected(&self, hub: &ObsHub, epoch: u64, oldest_retained: u64) {
        self.stale_rejected.inc();
        hub.record(TraceEvent::StaleRejected { epoch, oldest_retained });
    }

    /// Records a Healthy → Degraded transition.
    pub fn note_degraded(&self, hub: &ObsHub, consecutive_failures: u32) {
        self.degradations.inc();
        self.degraded.set(1.0);
        hub.record(TraceEvent::Degraded { consecutive_failures });
    }

    /// Records a Degraded → Healthy transition after `seconds` spent
    /// degraded.
    pub fn note_promoted(&self, hub: &ObsHub, consecutive_successes: u32, seconds: f64) {
        self.promotions.inc();
        self.degraded.set(0.0);
        self.degraded_seconds.add(seconds);
        hub.record(TraceEvent::Promoted { consecutive_successes });
    }

    /// Records one engine dispatch (a modulator run or a demodulator
    /// resume) under the engine's stable name (`interp`/`compiled`).
    pub fn note_engine_dispatch(&self, engine: &str) {
        self.engine_dispatch[usize::from(engine == "compiled")].inc();
    }

    /// Records one bytecode-engine build: bodies the compiler accepted
    /// and bodies it declined to the interpreter fallback.
    pub fn note_engine_build(&self, bodies: u64, declined: u64) {
        self.compiled_bodies.add(bodies);
        self.compile_fallbacks.add(declined);
    }

    /// Publishes the receiver heap's size after an envelope's release:
    /// flat for a handler that publishes nothing, growing by what it
    /// publishes otherwise.
    pub fn note_receiver_heap(&self, cells: usize) {
        self.receiver_heap_cells.set(cells as f64);
    }

    fn note_split(&self, hub: &ObsHub, pse: PseId, epoch: u64) {
        let previous = self.last_split.swap(pse as u64, Ordering::Relaxed);
        if previous != pse as u64 {
            hub.record(TraceEvent::PseActivated { pse: pse as u32, epoch });
        }
    }
}

fn reason_index(reason: PlanReason) -> usize {
    PlanReason::all().iter().position(|r| *r == reason).expect("all reasons enumerated")
}
