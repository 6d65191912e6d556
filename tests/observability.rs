//! Observability surface tests: the metric inventory is **append-only**
//! (renaming or dropping an instrument breaks every dashboard and the
//! `BENCH_*.json` consumers built on top of it), and the numbers the
//! registry reports agree with the session's own ground-truth counters.
//!
//! Both tests drive the same seeded chaos storm the chaos suite uses, so
//! every instrument in the sim/partitioning stack is actually exercised.

use std::collections::BTreeSet;
use std::sync::Arc;

use method_partitioning::apps::sensor;
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::ir::interp::ExecCtx;
use method_partitioning::ir::{IrError, Value};
use method_partitioning::jecho::{SimConfig, SimSession};
use method_partitioning::simnet::{FaultPlan, Host, Link, SimTime};

const MESSAGES: u64 = 30;

/// Every metric identity a chaos sim session registers, as
/// `name{label_key}` (label *keys* only — values like the PSE id vary by
/// handler). See OBSERVABILITY.md for the full catalog including the
/// TCP-transport-only instruments (`reconnects_total`,
/// `heartbeats_total`, `demod_errors_total`,
/// `plan_updates_applied_total`), which need a real socket to register,
/// and the session-lifecycle instruments that live on the
/// `SessionManager` and `Router` hubs rather than a sim session's
/// (`worker_slots_active`, `sessions_closed_total{reason}`,
/// `orphans_reclaimed_total`, `router_placed_sessions{node}`,
/// `router_orphan_sessions{node}`), covered by the router and chaos
/// drill suites.
///
/// This list is **append-only**: add new instruments at will, but never
/// rename or remove an entry without a deliberate, documented break.
const GOLDEN: &[&str] = &[
    "batch_member_acks_total",
    "batched_events_total",
    "compile_fallbacks_total",
    "compiled_bodies_total",
    "continuations_resumed_total{pse}",
    "continuations_sent_total{pse}",
    "deadline_timeouts_total",
    "degradations_total",
    "degraded",
    "degraded_seconds",
    "demod_work_units",
    "duplicates_suppressed_total",
    "engine_dispatch_total{engine}",
    "envelope_batches_total",
    "envelope_bytes",
    "feedback_window_resets_total",
    "frames_corrupted_total",
    "frames_lost_total",
    "handler_panics_total{side}",
    "marshal_borrowed_bytes_total",
    "marshal_copied_bytes_total",
    "mod_work_units",
    "plan_epoch",
    "plan_prepares_total{outcome}",
    "plan_rollbacks_total{reason}",
    "plan_switch_total{reason}",
    "plan_updates_dropped_total",
    "plans_quarantined",
    "profile_work_units_total",
    "promotions_total",
    "quarantined_total",
    "receiver_heap_cells",
    "reconfig_cut_weight",
    "reconfigurations_total",
    "retransmissions_total",
    "shed_total{reason}",
    "stale_plan_rejected_total",
];

fn storm(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_drop(0.12)
        .with_duplicate(0.10)
        .with_reorder(0.10)
        .with_corrupt(0.15)
        .with_partition(20..36)
}

fn sensor_event(
    program: &Arc<method_partitioning::ir::Program>,
    seq: u64,
) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
    move |ctx| {
        if seq.is_multiple_of(3) {
            Ok(vec![Value::Int(seq as i64)])
        } else {
            sensor::make_signal(program, ctx, seq, 0xC0FFEE)
        }
    }
}

fn run_sensor_storm(seed: u64) -> SimSession {
    let program = sensor::sensor_program().unwrap();
    let mut session = SimSession::adaptive(
        Arc::clone(&program),
        "process",
        sensor::sensor_cost_model(),
        sensor::stage_builtins(),
        sensor::consumer_builtins(),
        SimConfig::new(
            Host::new("producer", 760_000.0),
            Link::new("lan", SimTime::from_millis(1), 1_000_000.0).with_fault_plan(storm(seed)),
            Host::new("consumer", 281_000.0),
            TriggerPolicy::Rate(2),
        )
        .with_degradation(3, 3),
    )
    .unwrap();
    for seq in 1..=MESSAGES {
        session.deliver(sensor_event(&program, seq)).unwrap();
    }
    session.drain(500).unwrap();
    session
}

/// Reduce a snapshot to its set of `name{label_key,...}` identities.
fn identities(session: &SimSession) -> BTreeSet<String> {
    session
        .obs()
        .registry()
        .snapshot()
        .metrics
        .iter()
        .map(|m| {
            let mut id = m.name.clone();
            if !m.labels.is_empty() {
                let keys: Vec<&str> = m.labels.iter().map(|(k, _)| k.as_str()).collect();
                id.push('{');
                id.push_str(&keys.join(","));
                id.push('}');
            }
            id
        })
        .collect()
}

#[test]
fn metric_inventory_is_append_only() {
    let session = run_sensor_storm(7);
    let seen = identities(&session);
    let golden: BTreeSet<String> = GOLDEN.iter().map(|s| s.to_string()).collect();

    for name in &golden {
        assert!(
            seen.contains(name),
            "metric `{name}` disappeared from the registry. The inventory is \
             append-only: renaming or removing an instrument silently breaks \
             dashboards and BENCH_*.json consumers. Restore it (or, if the \
             break is deliberate, document it in OBSERVABILITY.md and update \
             GOLDEN in tests/observability.rs)."
        );
    }
    for name in &seen {
        assert!(
            golden.contains(name),
            "new metric `{name}` is not in the golden inventory. Welcome! \
             Append it to GOLDEN in tests/observability.rs and document its \
             name, labels, unit, and paper mechanism in OBSERVABILITY.md."
        );
    }
}

#[test]
fn registry_counters_agree_with_session_ground_truth() {
    let session = run_sensor_storm(7);
    let snap = session.obs().registry().snapshot();

    assert_eq!(snap.counter_sum("retransmissions_total"), session.retransmissions());
    assert_eq!(snap.counter_sum("frames_lost_total"), session.frames_lost());
    assert_eq!(snap.counter_sum("frames_corrupted_total"), session.frames_corrupted());
    assert_eq!(snap.counter_sum("duplicates_suppressed_total"), session.duplicates_suppressed());
    assert_eq!(snap.counter_sum("envelope_batches_total"), session.envelope_batches());
    assert_eq!(snap.counter_sum("batched_events_total"), session.batched_events());
    assert_eq!(snap.counter_sum("degradations_total"), session.degradations());
    assert_eq!(snap.counter_sum("promotions_total"), session.promotions());
    // The storm exercised the interesting paths at all.
    assert!(snap.counter_sum("retransmissions_total") > 0);
    assert!(snap.counter_sum("degradations_total") > 0);
    assert!(snap.counter_sum("plan_switch_total") > 0);
}
