//! Bounded structured trace-event ring.
//!
//! The runtime's interesting *transitions* — plan installs, PSE
//! activations, degradation and re-promotion, reconfiguration decisions —
//! are recorded as fixed-size [`Copy`] events into a ring buffer that is
//! preallocated at construction: pushing on the hot path takes a short
//! mutex and writes one slot, never allocating. When the ring wraps, the
//! oldest events are overwritten and counted in [`TraceRing::dropped`].

use std::sync::Mutex;

use crate::json::Json;

/// Why a partition plan was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// The initial plan selected at analysis time.
    Initial,
    /// An explicit caller-requested install.
    Install,
    /// The Runtime Reconfiguration Unit selected a new cut from profiled
    /// feedback (§2.5).
    Reconfig,
    /// The degradation controller fell back to the trivial entry cut.
    Degraded,
    /// The degradation controller re-promoted the stashed optimized plan.
    Promoted,
    /// The plan guard breached during its canary window and the retained
    /// prior generation was reinstalled.
    Rollback,
}

impl PlanReason {
    /// Stable lower-case label used in metrics and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanReason::Initial => "initial",
            PlanReason::Install => "install",
            PlanReason::Reconfig => "reconfig",
            PlanReason::Degraded => "degraded",
            PlanReason::Promoted => "promoted",
            PlanReason::Rollback => "rollback",
        }
    }

    /// All reasons, for pre-registering labelled counters.
    pub fn all() -> [PlanReason; 6] {
        [
            PlanReason::Initial,
            PlanReason::Install,
            PlanReason::Reconfig,
            PlanReason::Degraded,
            PlanReason::Promoted,
            PlanReason::Rollback,
        ]
    }
}

/// One structured runtime transition.
///
/// Active PSE sets are encoded as a bitmask over PSE ids (`bit i` = PSE
/// `i` active), the same word the partition plan stores; a handler has at
/// most 64 PSEs, so the mask is exact and the event stream stays
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A plan was installed (epoch bumped).
    PlanInstall {
        /// The new plan epoch.
        epoch: u64,
        /// Bitmask of active PSEs.
        active_mask: u64,
        /// What caused the install.
        reason: PlanReason,
    },
    /// A message split at a PSE that the previous message did not use.
    PseActivated {
        /// The newly exercised PSE.
        pse: u32,
        /// Plan epoch observed by the message.
        epoch: u64,
    },
    /// The Reconfiguration Unit produced a plan update, with the flow
    /// value that justified it.
    Reconfig {
        /// Bitmask of the newly selected active PSEs.
        active_mask: u64,
        /// The min-cut weight (sum of selected PSE weights).
        cut_weight: f64,
        /// Profiled messages in the feedback window that triggered it.
        messages: u64,
    },
    /// Link health crossed the failure threshold; entry-cut fallback.
    Degraded {
        /// Consecutive failures at the moment of the transition.
        consecutive_failures: u32,
    },
    /// Link health recovered; the optimized plan was re-promoted.
    Promoted {
        /// Consecutive successes at the moment of the transition.
        consecutive_successes: u32,
    },
    /// The demodulator rejected a continuation whose epoch predates the
    /// retained plan history.
    StaleRejected {
        /// The rejected message's epoch.
        epoch: u64,
        /// The oldest epoch still retained.
        oldest_retained: u64,
    },
    /// The profiling feedback window was reset because a plan switch the
    /// Reconfiguration Unit did not initiate made its EWMA window stale.
    FeedbackReset {
        /// The epoch observed at reset time.
        epoch: u64,
    },
    /// A modulator/demodulator invocation panicked and was caught at the
    /// failure-domain boundary; only the envelope failed.
    HandlerPanic {
        /// Sequence number of the envelope whose handling panicked.
        seq: u64,
    },
    /// An envelope exhausted its retry budget and moved to the
    /// dead-letter ring; the ack watermark advances past it.
    Quarantined {
        /// Sequence number of the quarantined envelope.
        seq: u64,
        /// Failures accumulated before quarantine.
        failures: u32,
    },
    /// Load shedding dropped or rejected deliveries at an ingress queue.
    Shed {
        /// Deliveries shed by this event.
        count: u64,
    },
    /// A session was rebuilt from the journal + analysis cache after a
    /// restart.
    Recovered {
        /// Plan epoch after reinstalling the journaled active set.
        epoch: u64,
        /// Ack watermark sequence numbering resumed from.
        watermark: u64,
    },
    /// A cluster node was declared dead and its sessions were migrated to
    /// surviving nodes (journal drain + cache-hit restore).
    NodeFailover {
        /// Index of the failed node.
        node: u32,
        /// Sessions migrated off the node by this failover.
        sessions: u32,
    },
    /// A previously failed node passed its rejoin hysteresis and took its
    /// home sessions back.
    NodeRejoin {
        /// Index of the rejoined node.
        node: u32,
        /// Sessions migrated back onto the node.
        sessions: u32,
    },
    /// A session copy was torn down: an explicit close, a drained node,
    /// or an orphaned slot reclaimed after a survived-node failover.
    SessionClosed {
        /// Cluster-global session id (or manager-local id for
        /// single-node closes).
        session: u64,
        /// Final ack watermark the copy reported at teardown.
        watermark: u64,
    },
    /// The plan guard breached during a canary window: the committed plan
    /// was retracted and the retained prior generation reinstalled (the
    /// offending active set is quarantined against immediate re-pick).
    PlanRollback {
        /// Epoch of the plan that breached the guard.
        from_epoch: u64,
        /// Epoch the reinstalled prior plan became.
        to_epoch: u64,
        /// Bitmask of the quarantined (breaching) active set.
        quarantined_mask: u64,
        /// Canary envelopes observed before the breach.
        observed: u64,
    },
    /// An execution engine was installed for a handler (the bytecode
    /// engine at construction, or an explicit re-selection).
    EngineSelected {
        /// True when the bytecode engine was installed; false for the
        /// reference interpreter.
        compiled: bool,
        /// Bodies the bytecode compiler compiled (0 when the interpreter
        /// was selected without compiling).
        bodies: u32,
    },
}

impl TraceEvent {
    /// Stable event-kind label used in JSON and text dumps.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PlanInstall { .. } => "plan_install",
            TraceEvent::PseActivated { .. } => "pse_activated",
            TraceEvent::Reconfig { .. } => "reconfig",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::Promoted { .. } => "promoted",
            TraceEvent::StaleRejected { .. } => "stale_rejected",
            TraceEvent::FeedbackReset { .. } => "feedback_reset",
            TraceEvent::HandlerPanic { .. } => "handler_panic",
            TraceEvent::Quarantined { .. } => "quarantined",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Recovered { .. } => "recovered",
            TraceEvent::NodeFailover { .. } => "node_failover",
            TraceEvent::NodeRejoin { .. } => "node_rejoin",
            TraceEvent::SessionClosed { .. } => "session_closed",
            TraceEvent::PlanRollback { .. } => "plan_rollback",
            TraceEvent::EngineSelected { .. } => "engine_selected",
        }
    }

    fn fields(&self) -> Vec<(String, Json)> {
        match *self {
            TraceEvent::PlanInstall { epoch, active_mask, reason } => vec![
                ("epoch".to_string(), Json::U64(epoch)),
                ("active".to_string(), mask_json(active_mask)),
                ("reason".to_string(), Json::str(reason.as_str())),
            ],
            TraceEvent::PseActivated { pse, epoch } => vec![
                ("pse".to_string(), Json::U64(pse as u64)),
                ("epoch".to_string(), Json::U64(epoch)),
            ],
            TraceEvent::Reconfig { active_mask, cut_weight, messages } => vec![
                ("active".to_string(), mask_json(active_mask)),
                ("cut_weight".to_string(), Json::F64(cut_weight)),
                ("messages".to_string(), Json::U64(messages)),
            ],
            TraceEvent::Degraded { consecutive_failures } => {
                vec![("consecutive_failures".to_string(), Json::U64(consecutive_failures as u64))]
            }
            TraceEvent::Promoted { consecutive_successes } => {
                vec![("consecutive_successes".to_string(), Json::U64(consecutive_successes as u64))]
            }
            TraceEvent::StaleRejected { epoch, oldest_retained } => vec![
                ("epoch".to_string(), Json::U64(epoch)),
                ("oldest_retained".to_string(), Json::U64(oldest_retained)),
            ],
            TraceEvent::FeedbackReset { epoch } => {
                vec![("epoch".to_string(), Json::U64(epoch))]
            }
            TraceEvent::HandlerPanic { seq } => {
                vec![("seq".to_string(), Json::U64(seq))]
            }
            TraceEvent::Quarantined { seq, failures } => vec![
                ("seq".to_string(), Json::U64(seq)),
                ("failures".to_string(), Json::U64(failures as u64)),
            ],
            TraceEvent::Shed { count } => {
                vec![("count".to_string(), Json::U64(count))]
            }
            TraceEvent::Recovered { epoch, watermark } => vec![
                ("epoch".to_string(), Json::U64(epoch)),
                ("watermark".to_string(), Json::U64(watermark)),
            ],
            TraceEvent::NodeFailover { node, sessions } => vec![
                ("node".to_string(), Json::U64(node as u64)),
                ("sessions".to_string(), Json::U64(sessions as u64)),
            ],
            TraceEvent::NodeRejoin { node, sessions } => vec![
                ("node".to_string(), Json::U64(node as u64)),
                ("sessions".to_string(), Json::U64(sessions as u64)),
            ],
            TraceEvent::SessionClosed { session, watermark } => vec![
                ("session".to_string(), Json::U64(session)),
                ("watermark".to_string(), Json::U64(watermark)),
            ],
            TraceEvent::PlanRollback { from_epoch, to_epoch, quarantined_mask, observed } => vec![
                ("from_epoch".to_string(), Json::U64(from_epoch)),
                ("to_epoch".to_string(), Json::U64(to_epoch)),
                ("quarantined".to_string(), mask_json(quarantined_mask)),
                ("observed".to_string(), Json::U64(observed)),
            ],
            TraceEvent::EngineSelected { compiled, bodies } => vec![
                ("engine".to_string(), Json::str(if compiled { "compiled" } else { "interp" })),
                ("bodies".to_string(), Json::U64(bodies as u64)),
            ],
        }
    }
}

/// A trace event plus its position and timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Monotonic sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Nanoseconds since the owning hub was created.
    pub at_nanos: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// Encodes an active-PSE slice as a bitmask: the one PSE-set encoding the
/// partition plan, the journal and the trace ring share (see
/// [`TraceEvent`]).
pub fn pse_mask(active: &[usize]) -> u64 {
    active.iter().filter(|&&p| p < 64).fold(0, |m, &p| m | (1u64 << p))
}

/// Decodes a bitmask back into sorted PSE ids.
pub fn mask_to_pses(mask: u64) -> Vec<usize> {
    (0..64).filter(|&b| mask & (1u64 << b) != 0).collect()
}

fn mask_json(mask: u64) -> Json {
    Json::Arr(mask_to_pses(mask).into_iter().map(|p| Json::U64(p as u64)).collect())
}

/// The bounded trace ring.
///
/// ```
/// use mpart_obs::{TraceEvent, TraceRing};
///
/// let ring = TraceRing::new(2);
/// for epoch in 1..=3 {
///     ring.record(epoch * 10, TraceEvent::FeedbackReset { epoch });
/// }
/// // Capacity 2: the oldest record was overwritten.
/// let events = ring.snapshot();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[0].seq, 1);
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug)]
pub struct TraceRing {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    /// Preallocated storage; grows only up to `capacity` during the
    /// initial fill, then slots are overwritten in place.
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the next slot to overwrite once full.
    next: usize,
    seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                capacity,
                next: 0,
                seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Appends a record stamped `at_nanos`; overwrites the oldest record
    /// when full.
    pub fn record(&self, at_nanos: u64, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("trace ring poisoned");
        let record = TraceRecord { seq: inner.seq, at_nanos, event };
        inner.seq += 1;
        if inner.buf.len() < inner.capacity {
            inner.buf.push(record);
        } else {
            let next = inner.next;
            inner.buf[next] = record;
            inner.next = (next + 1) % inner.capacity;
            inner.dropped += 1;
        }
    }

    /// Copies out the retained records in chronological order.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let inner = self.inner.lock().expect("trace ring poisoned");
        let mut out = Vec::with_capacity(inner.buf.len());
        if inner.buf.len() < inner.capacity {
            out.extend_from_slice(&inner.buf);
        } else {
            out.extend_from_slice(&inner.buf[inner.next..]);
            out.extend_from_slice(&inner.buf[..inner.next]);
        }
        out
    }

    /// Total records ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").seq
    }

    /// Records lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// Converts the retained records to their documented JSON shape (see
    /// `OBSERVABILITY.md`).
    pub fn to_json(&self) -> Json {
        let records = self
            .snapshot()
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("seq".to_string(), Json::U64(r.seq)),
                    ("t_nanos".to_string(), Json::U64(r.at_nanos)),
                    ("event".to_string(), Json::str(r.event.kind())),
                ];
                fields.extend(r.event.fields());
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("dropped".to_string(), Json::U64(self.dropped())),
            ("events".to_string(), Json::Arr(records)),
        ])
    }

    /// Renders a human-readable one-event-per-line listing.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in self.snapshot() {
            let detail = r
                .event
                .fields()
                .into_iter()
                .map(|(k, v)| format!("{k}={}", v.render_compact()))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "[{:>5}] {:>12}ns {:<15} {detail}\n",
                r.seq,
                r.at_nanos,
                r.event.kind()
            ));
        }
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("({dropped} older events dropped by ring wrap)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_in_order() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.record(i, TraceEvent::FeedbackReset { epoch: i });
        }
        let seqs: Vec<u64> = ring.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn mask_round_trips() {
        let active = vec![0, 3, 63];
        assert_eq!(mask_to_pses(pse_mask(&active)), active);
        // Ids past the mask width are dropped, not wrapped.
        assert_eq!(pse_mask(&[64, 65]), 0);
    }

    #[test]
    fn json_shape_names_events() {
        let ring = TraceRing::new(4);
        ring.record(
            7,
            TraceEvent::PlanInstall { epoch: 2, active_mask: 0b101, reason: PlanReason::Reconfig },
        );
        let json = ring.to_json().render_compact();
        assert!(json.contains("\"event\":\"plan_install\""), "{json}");
        assert!(json.contains("\"active\":[0,2]"), "{json}");
        assert!(json.contains("\"reason\":\"reconfig\""), "{json}");
    }
}
