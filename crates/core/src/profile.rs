//! The Runtime Profiling Unit.
//!
//! "The profiling code inserted by static analysis is invoked by the
//! Runtime Profiling Unit. The invocation of such profiling code is
//! conditional" (§2.5) — the per-PSE profiling flags live in
//! [`PartitionPlan`](crate::plan::PartitionPlan); this module keeps the
//! statistics those probes produce and decides when to emit feedback
//! (rate- or diff-triggered) to the Reconfiguration Unit.

use crate::PseId;

/// Exponentially-weighted moving average.
///
/// ```
/// use mpart::profile::Ewma;
///
/// let mut size = Ewma::new(0.5);
/// size.update(1000.0);
/// size.update(2000.0);
/// assert_eq!(size.value(), Some(1500.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    value: Option<f64>,
    alpha: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]` (1 keeps
    /// only the latest sample).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { value: None, alpha }
    }

    /// Feeds a sample.
    pub fn update(&mut self, sample: f64) {
        self.value = Some(match self.value {
            None => sample,
            Some(v) => v + self.alpha * (sample - v),
        });
    }

    /// Current smoothed value, if any sample arrived.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// One per-PSE observation made by the modulator's profiling code while a
/// message traversed the edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseSample {
    /// The observed PSE.
    pub pse: PseId,
    /// Work units spent by the modulator from message start to this edge.
    pub mod_work: u64,
    /// Measured continuation payload size at this edge, if the cost model
    /// profiles sizes.
    pub payload_bytes: Option<u64>,
    /// Whether the message actually split here.
    pub was_split: bool,
}

/// Per-message profile from the modulator side.
#[derive(Debug, Clone)]
pub struct ModMessageProfile {
    /// Per-PSE observations along the executed prefix.
    pub samples: Vec<PseSample>,
    /// The PSE the message split at.
    pub split: PseId,
    /// Total modulator work for the message.
    pub mod_work: u64,
    /// Elapsed sender-side time (seconds, virtual or wall), when the
    /// integration layer can measure it.
    pub t_mod: Option<f64>,
}

/// Per-message profile from the demodulator side.
#[derive(Debug, Clone, Copy)]
pub struct DemodMessageProfile {
    /// The PSE the message resumed at.
    pub pse: PseId,
    /// Total demodulator work for the message.
    pub demod_work: u64,
    /// Elapsed receiver-side time (seconds), when measurable.
    pub t_demod: Option<f64>,
}

/// Per-PSE aggregated statistics.
#[derive(Debug, Clone)]
pub struct PseStats {
    /// Smoothed continuation payload size (bytes) observed at this edge.
    pub size: Ewma,
    /// Smoothed modulator work from message start to this edge.
    pub mod_work: Ewma,
    /// Traversal count (how many profiled messages crossed this edge).
    pub traversals: u64,
    /// Split count (how many messages actually split here).
    pub splits: u64,
}

impl PseStats {
    fn new(alpha: f64) -> Self {
        PseStats { size: Ewma::new(alpha), mod_work: Ewma::new(alpha), traversals: 0, splits: 0 }
    }
}

/// Immutable snapshot of the profiling state, shipped to the
/// Reconfiguration Unit as feedback.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Per-PSE smoothed payload size (bytes), `None` before any sample.
    pub size: Vec<Option<f64>>,
    /// Per-PSE smoothed modulator work to reach the edge.
    pub mod_work: Vec<Option<f64>>,
    /// Per-PSE traversal counts.
    pub traversals: Vec<u64>,
    /// Smoothed total work per message (modulator + demodulator).
    pub total_work: Option<f64>,
    /// Estimated sender speed (work units per second).
    pub speed_mod: Option<f64>,
    /// Estimated receiver speed (work units per second).
    pub speed_demod: Option<f64>,
    /// Messages profiled so far.
    pub messages: u64,
}

/// The Runtime Profiling Unit: aggregates both sides' per-message profiles.
#[derive(Debug, Clone)]
pub struct ProfilingUnit {
    stats: Vec<PseStats>,
    total_work: Ewma,
    speed_mod: Ewma,
    speed_demod: Ewma,
    messages: u64,
    // Pending modulator halves keyed by split PSE, awaiting the matching
    // demodulator profile (messages are processed in order per pair, so a
    // small queue suffices).
    pending_mod: Vec<ModMessageProfile>,
}

impl ProfilingUnit {
    /// Creates a unit for `n_pses` PSEs with EWMA smoothing `alpha`.
    pub fn new(n_pses: usize, alpha: f64) -> Self {
        ProfilingUnit {
            stats: (0..n_pses).map(|_| PseStats::new(alpha)).collect(),
            total_work: Ewma::new(alpha),
            speed_mod: Ewma::new(alpha),
            speed_demod: Ewma::new(alpha),
            messages: 0,
            pending_mod: Vec::new(),
        }
    }

    /// Number of PSEs tracked.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether no PSEs are tracked.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Records loose per-PSE observations that are not tied to message
    /// bookkeeping — e.g. the demodulator side's suffix profiling.
    pub fn record_samples(&mut self, samples: &[PseSample]) {
        for s in samples {
            if s.pse >= self.stats.len() {
                continue;
            }
            let st = &mut self.stats[s.pse];
            st.traversals += 1;
            st.mod_work.update(s.mod_work as f64);
            if let Some(b) = s.payload_bytes {
                st.size.update(b as f64);
            }
        }
    }

    /// Records the modulator half of a message profile.
    pub fn record_mod(&mut self, profile: ModMessageProfile) {
        for s in &profile.samples {
            if s.pse >= self.stats.len() {
                continue;
            }
            let st = &mut self.stats[s.pse];
            st.traversals += 1;
            if s.was_split {
                st.splits += 1;
            }
            st.mod_work.update(s.mod_work as f64);
            if let Some(b) = s.payload_bytes {
                st.size.update(b as f64);
            }
        }
        if let Some(t) = profile.t_mod {
            if t > 0.0 && profile.mod_work > 0 {
                self.speed_mod.update(profile.mod_work as f64 / t);
            }
        }
        self.messages += 1;
        self.pending_mod.push(profile);
        // Bound memory if demod profiles never arrive (e.g. lost feedback).
        if self.pending_mod.len() > 64 {
            self.pending_mod.remove(0);
        }
    }

    /// Records the demodulator half; pairs it with the oldest pending
    /// modulator profile of the same split PSE to update totals.
    pub fn record_demod(&mut self, profile: DemodMessageProfile) {
        if let Some(t) = profile.t_demod {
            if t > 0.0 && profile.demod_work > 0 {
                self.speed_demod.update(profile.demod_work as f64 / t);
            }
        }
        if let Some(pos) = self.pending_mod.iter().position(|m| m.split == profile.pse) {
            let m = self.pending_mod.remove(pos);
            self.total_work.update((m.mod_work + profile.demod_work) as f64);
        } else {
            // Unpaired demod profile (e.g. entry split with zero mod work).
            self.total_work.update(profile.demod_work as f64);
        }
    }

    /// Takes an immutable snapshot for feedback.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            size: self.stats.iter().map(|s| s.size.value()).collect(),
            mod_work: self.stats.iter().map(|s| s.mod_work.value()).collect(),
            traversals: self.stats.iter().map(|s| s.traversals).collect(),
            total_work: self.total_work.value(),
            speed_mod: self.speed_mod.value(),
            speed_demod: self.speed_demod.value(),
            messages: self.messages,
        }
    }

    /// Per-PSE stats (read-only).
    pub fn stats(&self) -> &[PseStats] {
        &self.stats
    }

    /// Modulator halves still waiting for their demodulator profile.
    pub fn pending_mod_profiles(&self) -> usize {
        self.pending_mod.len()
    }

    /// Discards window state tied to the superseded plan after an external
    /// plan switch: pending modulator halves were produced under split
    /// decisions that no longer exist, so pairing them with post-switch
    /// demodulator profiles would corrupt the total-work EWMA. The
    /// long-horizon per-PSE EWMAs are workload properties, not plan
    /// properties, and survive the reset.
    pub fn reset_window(&mut self) {
        self.pending_mod.clear();
    }
}

/// When the Profiling Unit pushes feedback to the Reconfiguration Unit.
///
/// "An application can choose to send feedback only when a certain amount
/// of time has elapsed (rate-triggered), or when the profiling data for
/// one of the PSEs has changed significantly (diff-triggered)" (§2.5).
#[derive(Debug, Clone, Copy)]
pub enum TriggerPolicy {
    /// Never send feedback: the plan installed at deployment time stays
    /// fixed. Models the paper's manually-coded baseline versions.
    Never,
    /// Feedback every `n` messages.
    Rate(u64),
    /// Feedback when any PSE's smoothed cost moved by more than the given
    /// relative fraction since the last feedback.
    Diff(f64),
    /// Rate and diff combined (whichever fires first).
    RateOrDiff(u64, f64),
}

impl TriggerPolicy {
    /// Decides whether feedback should fire, given messages since the last
    /// feedback and the maximum relative change across PSE costs.
    pub fn fires(&self, messages_since: u64, max_rel_change: f64) -> bool {
        match *self {
            TriggerPolicy::Never => false,
            TriggerPolicy::Rate(n) => messages_since >= n,
            TriggerPolicy::Diff(d) => max_rel_change > d,
            TriggerPolicy::RateOrDiff(n, d) => messages_since >= n || max_rel_change > d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.update(10.0);
        assert_eq!(e.value(), Some(10.0));
        e.update(20.0);
        assert_eq!(e.value(), Some(15.0));
        for _ in 0..50 {
            e.update(20.0);
        }
        assert!((e.value().unwrap() - 20.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    fn sample(pse: PseId, work: u64, bytes: u64, split: bool) -> PseSample {
        PseSample { pse, mod_work: work, payload_bytes: Some(bytes), was_split: split }
    }

    #[test]
    fn mod_and_demod_profiles_aggregate() {
        let mut unit = ProfilingUnit::new(3, 0.5);
        unit.record_mod(ModMessageProfile {
            samples: vec![sample(0, 0, 800, false), sample(1, 10, 100, true)],
            split: 1,
            mod_work: 10,
            t_mod: Some(0.001),
        });
        unit.record_demod(DemodMessageProfile { pse: 1, demod_work: 30, t_demod: Some(0.003) });
        let snap = unit.snapshot();
        assert_eq!(snap.size[0], Some(800.0));
        assert_eq!(snap.size[1], Some(100.0));
        assert_eq!(snap.size[2], None);
        assert_eq!(snap.total_work, Some(40.0));
        assert_eq!(snap.speed_mod, Some(10_000.0));
        assert_eq!(snap.speed_demod, Some(10_000.0));
        assert_eq!(snap.traversals, vec![1, 1, 0]);
        assert_eq!(unit.stats()[1].splits, 1);
    }

    #[test]
    fn unpaired_demod_still_updates_total() {
        let mut unit = ProfilingUnit::new(1, 1.0);
        unit.record_demod(DemodMessageProfile { pse: 0, demod_work: 42, t_demod: None });
        assert_eq!(unit.snapshot().total_work, Some(42.0));
    }

    #[test]
    fn pending_queue_is_bounded() {
        let mut unit = ProfilingUnit::new(1, 1.0);
        for i in 0..100 {
            unit.record_mod(ModMessageProfile {
                samples: vec![],
                split: 0,
                mod_work: i,
                t_mod: None,
            });
        }
        assert!(unit.pending_mod.len() <= 64);
    }

    #[test]
    fn trigger_policies() {
        assert!(!TriggerPolicy::Never.fires(u64::MAX, f64::INFINITY));
        assert!(TriggerPolicy::Rate(5).fires(5, 0.0));
        assert!(!TriggerPolicy::Rate(5).fires(4, 10.0));
        assert!(TriggerPolicy::Diff(0.2).fires(0, 0.3));
        assert!(!TriggerPolicy::Diff(0.2).fires(100, 0.1));
        assert!(TriggerPolicy::RateOrDiff(5, 0.2).fires(5, 0.0));
        assert!(TriggerPolicy::RateOrDiff(5, 0.2).fires(1, 0.5));
        assert!(!TriggerPolicy::RateOrDiff(5, 0.2).fires(1, 0.1));
    }
}
