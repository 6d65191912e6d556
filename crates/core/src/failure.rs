//! The session failure domain: panic isolation, retry budgets, and the
//! poison-envelope dead-letter ring.
//!
//! PR 1 hardened the *wire* — CRC frames, retransmission, plan-epoch
//! fencing — but above it a handler panic still tore down its worker and
//! a malformed-but-CRC-valid envelope was retried forever. This module
//! supplies the three small pieces the session layer composes into a real
//! failure domain:
//!
//! * [`isolate`] — runs one modulator/demodulator invocation under
//!   [`std::panic::catch_unwind`] and converts a panic into
//!   [`IrError::HandlerPanic`], so a panic fails only that envelope.
//! * [`RetryBudget`] — counts failures (panic or decode error) per
//!   envelope sequence number; once an envelope exhausts the budget it is
//!   *quarantined* instead of retried, so retransmission can advance the
//!   ack watermark past it instead of livelocking.
//! * [`DeadLetterRing`] — a bounded per-session ring of quarantined
//!   envelopes (sequence number, failure kind, rendered error; never the
//!   payload) for `mpart deadletter` inspection.
//!
//! The pieces are deliberately passive — no threads, no clocks — so the
//! seeded chaos suite stays deterministic.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mpart_ir::IrError;

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads verbatim, anything else a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one handler invocation under `catch_unwind`, converting a panic
/// into [`IrError::HandlerPanic`]. `IrError` results pass through
/// unchanged.
///
/// The closure typically borrows the handler halves and an `ExecCtx`
/// mutably; `AssertUnwindSafe` is sound here because a failed envelope's
/// context is either discarded (sender contexts are per-event) or only
/// ever observed through the failure path that reports the error.
pub fn isolate<T>(f: impl FnOnce() -> Result<T, IrError>) -> Result<T, IrError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(IrError::HandlerPanic(panic_message(payload))),
    }
}

/// What pushed an envelope toward quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The handler invocation panicked (caught by [`isolate`]).
    Panic,
    /// The envelope decoded but the demodulator rejected it (marshal /
    /// continuation / stale-plan error).
    Decode,
    /// The envelope's deadline budget expired while the demodulator was
    /// stalled.
    Deadline,
}

impl FailureKind {
    /// Stable lowercase label for metrics and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Decode => "decode",
            FailureKind::Deadline => "deadline",
        }
    }
}

/// Tuning knobs for the failure domain.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    /// Failures (panic or decode error) an envelope may accumulate before
    /// it is quarantined. Clamped to at least 1.
    pub retry_budget: u32,
    /// Capacity of the per-session dead-letter ring. Clamped to at
    /// least 1.
    pub deadletter_capacity: usize,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig { retry_budget: 3, deadletter_capacity: 32 }
    }
}

impl FailureConfig {
    /// Sets the per-envelope retry budget (min 1).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget.max(1);
        self
    }
}

/// Per-envelope failure accounting: decides *when* an envelope has failed
/// often enough to quarantine.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    budget: u32,
    failures: HashMap<u64, u32>,
}

impl RetryBudget {
    /// A budget allowing `budget` failures per envelope (min 1).
    pub fn new(budget: u32) -> Self {
        RetryBudget { budget: budget.max(1), failures: HashMap::new() }
    }

    /// Records one failure for `seq` and returns the running count.
    pub fn record(&mut self, seq: u64) -> u32 {
        let count = self.failures.entry(seq).or_insert(0);
        *count += 1;
        *count
    }

    /// Whether `count` failures exhaust the budget.
    pub fn exhausted(&self, count: u32) -> bool {
        count >= self.budget
    }

    /// Forgets an envelope that eventually succeeded (or was quarantined).
    pub fn clear(&mut self, seq: u64) {
        self.failures.remove(&seq);
    }

    /// Failures recorded so far for `seq`.
    pub fn failures(&self, seq: u64) -> u32 {
        self.failures.get(&seq).copied().unwrap_or(0)
    }
}

/// One quarantined envelope: metadata only, never the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// The envelope's sequence number.
    pub seq: u64,
    /// The failure class that exhausted the budget.
    pub kind: FailureKind,
    /// Failures accumulated before quarantine.
    pub failures: u32,
    /// The last error, rendered for humans.
    pub error: String,
}

#[derive(Debug, Default)]
struct RingInner {
    letters: std::collections::VecDeque<DeadLetter>,
    quarantined: u64,
    evicted: u64,
}

/// A bounded ring of quarantined envelopes. Shared between the owning
/// worker (writer) and inspection paths (`mpart deadletter`, the session
/// manager), hence the internal mutex; contention is nil because pushes
/// only happen on the rare quarantine path.
#[derive(Debug)]
pub struct DeadLetterRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl DeadLetterRing {
    /// A ring holding at most `capacity` letters (min 1); older letters
    /// are evicted once full.
    pub fn new(capacity: usize) -> Self {
        DeadLetterRing { capacity: capacity.max(1), inner: Mutex::new(RingInner::default()) }
    }

    /// Quarantines one envelope, evicting the oldest letter if full.
    pub fn push(&self, letter: DeadLetter) {
        let mut inner = self.inner.lock().expect("dead-letter ring poisoned");
        if inner.letters.len() == self.capacity {
            inner.letters.pop_front();
            inner.evicted += 1;
        }
        inner.letters.push_back(letter);
        inner.quarantined += 1;
    }

    /// All letters currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.inner.lock().expect("dead-letter ring poisoned").letters.iter().cloned().collect()
    }

    /// Envelopes quarantined over the ring's lifetime (monotone; includes
    /// evicted letters).
    pub fn quarantined(&self) -> u64 {
        self.inner.lock().expect("dead-letter ring poisoned").quarantined
    }

    /// Letters evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().expect("dead-letter ring poisoned").evicted
    }

    /// Letters currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("dead-letter ring poisoned").letters.len()
    }

    /// Whether the ring holds no letters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `seq` is among the retained letters.
    pub fn contains(&self, seq: u64) -> bool {
        self.inner.lock().expect("dead-letter ring poisoned").letters.iter().any(|l| l.seq == seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolate_converts_panics_and_passes_results_through() {
        let ok: Result<u64, IrError> = isolate(|| Ok(7));
        assert_eq!(ok, Ok(7));
        let err: Result<u64, IrError> = isolate(|| Err(IrError::DivideByZero));
        assert_eq!(err, Err(IrError::DivideByZero));
        let caught: Result<u64, IrError> = isolate(|| panic!("boom {}", 42));
        assert_eq!(caught, Err(IrError::HandlerPanic("boom 42".into())));
        let static_str: Result<u64, IrError> = isolate(|| panic!("plain"));
        assert_eq!(static_str, Err(IrError::HandlerPanic("plain".into())));
    }

    #[test]
    fn retry_budget_quarantines_at_the_configured_count() {
        let mut budget = RetryBudget::new(3);
        let first = budget.record(9);
        assert!(!budget.exhausted(first));
        let second = budget.record(9);
        assert!(!budget.exhausted(second));
        let third = budget.record(9);
        assert!(budget.exhausted(third));
        assert_eq!(budget.failures(9), 3);
        // Independent envelopes do not share a budget.
        let other = budget.record(10);
        assert!(!budget.exhausted(other));
        budget.clear(9);
        assert_eq!(budget.failures(9), 0);
        // Budget is clamped to at least one failure.
        let mut zero = RetryBudget::new(0);
        let only = zero.record(1);
        assert!(zero.exhausted(only));
    }

    #[test]
    fn dead_letter_ring_is_bounded_and_counts_evictions() {
        let ring = DeadLetterRing::new(2);
        for seq in 1..=3u64 {
            ring.push(DeadLetter {
                seq,
                kind: FailureKind::Panic,
                failures: 3,
                error: "injected".into(),
            });
        }
        assert_eq!(ring.quarantined(), 3);
        assert_eq!(ring.evicted(), 1);
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_empty());
        assert!(!ring.contains(1), "oldest letter evicted");
        assert!(ring.contains(2) && ring.contains(3));
        let seqs: Vec<u64> = ring.snapshot().iter().map(|l| l.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
    }

    #[test]
    fn failure_kind_labels_are_stable() {
        assert_eq!(FailureKind::Panic.label(), "panic");
        assert_eq!(FailureKind::Decode.label(), "decode");
        assert_eq!(FailureKind::Deadline.label(), "deadline");
    }
}
