//! Deterministic link fault injection: seeded drop / duplicate / reorder /
//! corrupt probabilities plus a scheduled fault plan (e.g. "partition the
//! link for transmissions 100–200").
//!
//! The injector decides the fate of each transmission *attempt* from a
//! seeded PRNG and a monotone attempt counter, so an identical seed and
//! attempt sequence replays the identical storm — chaos runs are exactly
//! reproducible and comparable against an unpartitioned oracle.

use std::ops::Range;

use rand::prelude::*;

/// Probabilities and schedule of injected link faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability a transmission is silently dropped.
    pub drop: f64,
    /// Probability a transmission is delivered twice.
    pub duplicate: f64,
    /// Probability a transmission is swapped with the one before it.
    pub reorder: f64,
    /// Probability a transmission's bytes are flipped in transit.
    pub corrupt: f64,
    /// Probability the receiving handler *panics* while demodulating the
    /// transmission (exercises `catch_unwind` panic isolation).
    pub handler_panic: f64,
    /// Probability the demodulator stalls on the transmission: it is
    /// withheld this round and charged against the deadline budget.
    pub stall: f64,
    /// Probability the receiver's ingress sheds the transmission under
    /// overload (not acked; retransmitted later).
    pub overload: f64,
    /// PRNG seed for the per-attempt coin flips.
    pub seed: u64,
    /// Attempt-index windows during which the link is fully partitioned
    /// (nothing crosses, regardless of the probabilities above).
    pub partitions: Vec<Range<u64>>,
    /// Envelope sequence numbers whose demodulation deterministically
    /// panics on *every* attempt — poison envelopes that can only leave
    /// the retransmission window through quarantine.
    pub poison_seqs: Vec<u64>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the injected handler-panic probability.
    pub fn with_handler_panic(mut self, p: f64) -> Self {
        self.handler_panic = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the demodulator-stall probability.
    pub fn with_stall(mut self, p: f64) -> Self {
        self.stall = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the receiver-overload (ingress shed) probability.
    pub fn with_overload(mut self, p: f64) -> Self {
        self.overload = p.clamp(0.0, 1.0);
        self
    }

    /// Partitions the link for attempt indices in `window` (0-based,
    /// half-open). Windows may overlap.
    pub fn with_partition(mut self, window: Range<u64>) -> Self {
        self.partitions.push(window);
        self
    }

    /// Marks envelope `seq` as poison: every demodulation attempt panics,
    /// deterministically, independent of the PRNG.
    pub fn with_poison(mut self, seq: u64) -> Self {
        self.poison_seqs.push(seq);
        self
    }

    /// Whether attempt `index` falls inside a scheduled partition.
    pub fn partitioned_at(&self, index: u64) -> bool {
        self.partitions.iter().any(|w| w.contains(&index))
    }

    /// Whether envelope `seq` is scheduled as poison.
    pub fn poisoned(&self, seq: u64) -> bool {
        self.poison_seqs.contains(&seq)
    }
}

/// The fate of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// The link is down: the transmission never leaves the sender.
    pub partitioned: bool,
    /// The transmission is silently lost.
    pub dropped: bool,
    /// The transmission arrives twice.
    pub duplicated: bool,
    /// The transmission is swapped with its predecessor.
    pub reordered: bool,
    /// The transmission's bytes are damaged in transit.
    pub corrupted: bool,
    /// The receiving handler panics while demodulating it.
    pub handler_panic: bool,
    /// The demodulator stalls: withheld this round, deadline charged.
    pub stalled: bool,
    /// The receiver's ingress sheds it under overload.
    pub overloaded: bool,
}

impl FaultDecision {
    /// True when the transmission reaches the receiver (possibly damaged
    /// or duplicated).
    pub fn delivers(&self) -> bool {
        !self.partitioned && !self.dropped
    }
}

/// Stateful fault engine: a [`FaultPlan`] plus the seeded PRNG and the
/// attempt counter.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    attempts: u64,
}

impl FaultInjector {
    /// Creates an injector from a plan (PRNG seeded from `plan.seed`).
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultInjector { plan, rng, attempts: 0 }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Transmission attempts decided so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Decides the fate of the next transmission attempt. The coin flips
    /// are always drawn in the same order (drop, duplicate, reorder,
    /// corrupt, handler-panic, stall, overload, plus one positional draw
    /// for corruption), even inside a partition window, so schedules stay
    /// aligned across runs that differ only in their partition windows.
    /// Zero-probability faults draw no coin at all, so plans that never
    /// enable the newer fault kinds replay the exact schedules older
    /// plans produced.
    pub fn decide(&mut self) -> FaultDecision {
        let index = self.attempts;
        self.attempts += 1;
        let dropped = self.plan.drop > 0.0 && self.rng.random_bool(self.plan.drop);
        let duplicated = self.plan.duplicate > 0.0 && self.rng.random_bool(self.plan.duplicate);
        let reordered = self.plan.reorder > 0.0 && self.rng.random_bool(self.plan.reorder);
        let corrupted = self.plan.corrupt > 0.0 && self.rng.random_bool(self.plan.corrupt);
        let handler_panic =
            self.plan.handler_panic > 0.0 && self.rng.random_bool(self.plan.handler_panic);
        let stalled = self.plan.stall > 0.0 && self.rng.random_bool(self.plan.stall);
        let overloaded = self.plan.overload > 0.0 && self.rng.random_bool(self.plan.overload);
        FaultDecision {
            partitioned: self.plan.partitioned_at(index),
            dropped,
            duplicated,
            reordered,
            corrupted,
            handler_panic,
            stalled,
            overloaded,
        }
    }

    /// Damages `bytes` in place (deterministically, from the same PRNG):
    /// one byte is XOR-flipped. No-op on empty input.
    pub fn corrupt_in_place(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let at = self.rng.random_range(0..bytes.len());
        bytes[at] ^= 0x55;
    }
}

/// Scheduled node-level faults for a routed cluster: "kill node `k`
/// before delivery round `i`", "revive it before round `j`". Where
/// [`FaultPlan`] injects *link* faults per transmission attempt, a
/// `NodeFaultPlan` injects *host* faults per delivery round — the driver
/// (chaos tests, the `failover` bench, `mpart route --kill`) applies
/// [`kills_at`](NodeFaultPlan::kills_at) /
/// [`revives_at`](NodeFaultPlan::revives_at) before each round. The
/// schedule is plain data, so identical plans replay identical storms.
#[derive(Debug, Clone, Default)]
pub struct NodeFaultPlan {
    /// `(round, node)` pairs: kill `node` before delivery round `round`.
    pub kills: Vec<(u64, usize)>,
    /// `(round, node)` pairs: revive `node` before delivery round
    /// `round`.
    pub revives: Vec<(u64, usize)>,
    /// `(round, node)` pairs: partition `node` before delivery round
    /// `round` — heartbeat loss while the host (and its session state)
    /// stays alive, the survived-node failover shape.
    pub partitions: Vec<(u64, usize)>,
    /// `(round, node)` pairs: heal `node`'s partition before round
    /// `round`.
    pub heals: Vec<(u64, usize)>,
}

impl NodeFaultPlan {
    /// An empty (fault-free) schedule.
    pub fn new() -> Self {
        NodeFaultPlan::default()
    }

    /// Schedules `node` to die before round `round`.
    pub fn with_kill(mut self, round: u64, node: usize) -> Self {
        self.kills.push((round, node));
        self
    }

    /// Schedules `node` to come back before round `round`.
    pub fn with_revive(mut self, round: u64, node: usize) -> Self {
        self.revives.push((round, node));
        self
    }

    /// Schedules a heartbeat partition for `node`: unreachable from
    /// round `from` up to (not including) round `to`, then healed.
    /// Unlike [`with_kill`](NodeFaultPlan::with_kill) the host keeps its
    /// session state — on heal the router finds an *orphaned* copy to
    /// reclaim, not a rebooted blank.
    pub fn with_partition(mut self, from: u64, to: u64, node: usize) -> Self {
        self.partitions.push((from, node));
        self.heals.push((to.max(from), node));
        self
    }

    /// Appends a seeded flapping schedule for `node`: `cycles`
    /// kill/revive pairs starting at round `start`, spaced a jittered
    /// `period` apart (each boundary shifted by up to ±`period/4` drawn
    /// from the seeded PRNG). Same seed, same flaps.
    pub fn with_flapping(
        mut self,
        seed: u64,
        node: usize,
        start: u64,
        period: u64,
        cycles: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let period = period.max(2);
        let jitter = (period / 4).max(1);
        let mut at = start;
        for _ in 0..cycles {
            let down = at + rng.random_range(0..jitter);
            let up = down + period / 2 + rng.random_range(0..jitter);
            self.kills.push((down, node));
            self.revives.push((up, node));
            at = up + period / 2;
        }
        self
    }

    /// Nodes scheduled to die before round `round`.
    pub fn kills_at(&self, round: u64) -> Vec<usize> {
        self.kills.iter().filter(|(r, _)| *r == round).map(|(_, n)| *n).collect()
    }

    /// Nodes scheduled to revive before round `round`.
    pub fn revives_at(&self, round: u64) -> Vec<usize> {
        self.revives.iter().filter(|(r, _)| *r == round).map(|(_, n)| *n).collect()
    }

    /// Nodes scheduled to partition before round `round`.
    pub fn partitions_at(&self, round: u64) -> Vec<usize> {
        self.partitions.iter().filter(|(r, _)| *r == round).map(|(_, n)| *n).collect()
    }

    /// Nodes whose partitions are scheduled to heal before round
    /// `round`.
    pub fn heals_at(&self, round: u64) -> Vec<usize> {
        self.heals.iter().filter(|(r, _)| *r == round).map(|(_, n)| *n).collect()
    }

    /// Last round any scheduled fault fires at (0 for an empty plan).
    pub fn horizon(&self) -> u64 {
        self.kills
            .iter()
            .chain(self.revives.iter())
            .chain(self.partitions.iter())
            .chain(self.heals.iter())
            .map(|(r, _)| *r)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_always_delivers() {
        let mut inj = FaultInjector::new(FaultPlan::new(7));
        for _ in 0..100 {
            let d = inj.decide();
            assert_eq!(d, FaultDecision::default());
            assert!(d.delivers());
        }
    }

    #[test]
    fn partition_windows_cover_exactly_their_range() {
        let plan = FaultPlan::new(0).with_partition(3..6).with_partition(10..11);
        let mut inj = FaultInjector::new(plan);
        let down: Vec<u64> = (0..15).filter(|_| inj.decide().partitioned).collect();
        assert_eq!(down, vec![3, 4, 5, 10]);
    }

    #[test]
    fn same_seed_replays_identical_decisions() {
        let plan = FaultPlan::new(99)
            .with_drop(0.3)
            .with_duplicate(0.2)
            .with_reorder(0.2)
            .with_corrupt(0.1);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let run_a: Vec<FaultDecision> = (0..200).map(|_| a.decide()).collect();
        let run_b: Vec<FaultDecision> = (0..200).map(|_| b.decide()).collect();
        assert_eq!(run_a, run_b);
        // And the storm is not degenerate.
        assert!(run_a.iter().any(|d| d.dropped));
        assert!(run_a.iter().any(|d| d.duplicated));
        assert!(run_a.iter().any(|d| d.corrupted));
        assert!(run_a.iter().any(|d| d.delivers()));
    }

    #[test]
    fn new_fault_kinds_draw_coins_only_when_enabled() {
        // A plan that never enables the newer kinds must replay the exact
        // schedule an old-style plan produced: the new coins draw nothing
        // from the PRNG when their probability is zero.
        let old_style = FaultPlan::new(99).with_drop(0.3).with_duplicate(0.2).with_corrupt(0.1);
        let mut a = FaultInjector::new(old_style.clone());
        let mut b = FaultInjector::new(old_style);
        let run_a: Vec<FaultDecision> = (0..200).map(|_| a.decide()).collect();
        let run_b: Vec<FaultDecision> = (0..200).map(|_| b.decide()).collect();
        assert_eq!(run_a, run_b);
        assert!(run_a.iter().all(|d| !d.handler_panic && !d.stalled && !d.overloaded));

        let stormy = FaultPlan::new(99).with_handler_panic(0.3).with_stall(0.3).with_overload(0.3);
        let mut inj = FaultInjector::new(stormy);
        let run: Vec<FaultDecision> = (0..200).map(|_| inj.decide()).collect();
        assert!(run.iter().any(|d| d.handler_panic));
        assert!(run.iter().any(|d| d.stalled));
        assert!(run.iter().any(|d| d.overloaded));
    }

    #[test]
    fn poison_seqs_are_deterministic_and_rng_free() {
        let plan = FaultPlan::new(4).with_poison(13).with_poison(21);
        assert!(plan.poisoned(13) && plan.poisoned(21));
        assert!(!plan.poisoned(14));
        // Poison membership never touches the PRNG: decisions with and
        // without poison seqs are identical.
        let mut with = FaultInjector::new(plan);
        let mut without = FaultInjector::new(FaultPlan::new(4));
        for _ in 0..50 {
            assert_eq!(with.decide(), without.decide());
        }
    }

    #[test]
    fn node_fault_plan_schedules_and_replays() {
        let plan = NodeFaultPlan::new().with_kill(5, 0).with_revive(9, 0).with_kill(5, 2);
        assert_eq!(plan.kills_at(5), vec![0, 2]);
        assert_eq!(plan.kills_at(6), Vec::<usize>::new());
        assert_eq!(plan.revives_at(9), vec![0]);
        assert_eq!(plan.horizon(), 9);

        // Partitions schedule both the cut and the heal, and push the
        // horizon past the last revive.
        let plan = plan.with_partition(4, 12, 1);
        assert_eq!(plan.partitions_at(4), vec![1]);
        assert_eq!(plan.partitions_at(5), Vec::<usize>::new());
        assert_eq!(plan.heals_at(12), vec![1]);
        assert_eq!(plan.horizon(), 12);

        // Flapping is seeded: identical seeds produce identical flaps,
        // kills and revives alternate, and rounds are monotone.
        let a = NodeFaultPlan::new().with_flapping(42, 1, 10, 8, 3);
        let b = NodeFaultPlan::new().with_flapping(42, 1, 10, 8, 3);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.revives, b.revives);
        assert_eq!(a.kills.len(), 3);
        assert_eq!(a.revives.len(), 3);
        for (kill, revive) in a.kills.iter().zip(a.revives.iter()) {
            assert!(kill.0 < revive.0, "down before up: {:?} {:?}", kill, revive);
        }
        let different = NodeFaultPlan::new().with_flapping(43, 1, 10, 8, 3);
        assert_ne!(a.kills, different.kills, "seed changes the schedule");
    }

    #[test]
    fn corruption_changes_bytes_deterministically() {
        let mut a = FaultInjector::new(FaultPlan::new(5));
        let mut b = FaultInjector::new(FaultPlan::new(5));
        let clean = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut x = clean.clone();
        let mut y = clean.clone();
        a.corrupt_in_place(&mut x);
        b.corrupt_in_place(&mut y);
        assert_ne!(x, clean);
        assert_eq!(x, y, "same seed, same damage");
        let mut empty: Vec<u8> = vec![];
        a.corrupt_in_place(&mut empty);
    }
}
