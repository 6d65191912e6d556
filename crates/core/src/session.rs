//! Multi-session dispatch: N concurrent handler sessions sharded across a
//! fixed worker pool.
//!
//! The paper's runtime serves one partitioned handler session; the
//! [`SessionManager`] is the first step from reproduction to server (see
//! `ARCHITECTURE.md` §"Throughput layer"). It owns a fixed set of worker
//! threads (hand-rolled `std::thread` + `std::sync::mpsc`, no external
//! executor) and shards sessions across them by `session_id % workers`, so
//! one session's messages always run on one worker in submission order —
//! per-session ordering needs no locking.
//!
//! Each session owns its *runtime* state — modulator/demodulator pair,
//! [`PartitionPlan`](crate::plan::PartitionPlan) with its epoch history,
//! [`ObsHub`], and a private Reconfiguration Unit — so plans adapt
//! per-session. What sessions *share* is the pure static analysis: handler
//! construction goes through an
//! [`AnalysisCache`], and the
//! manager mirrors the cache's hit/miss/eviction counts into gauges on its
//! own hub (`analysis_cache_hits`, `analysis_cache_misses`,
//! `analysis_cache_evictions`; see OBSERVABILITY.md).
//!
//! ```
//! use mpart::session::{SessionConfig, SessionManager};
//! use mpart_cost::DataSizeModel;
//! use mpart_ir::interp::BuiltinRegistry;
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::Value;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(parse_program(
//!     "fn double(x) {\n  y = x * 2\n  native emit(y)\n  return y\n}\n",
//! )?);
//! let mut manager = SessionManager::new(SessionConfig::default().with_workers(2));
//! let mut receiver = BuiltinRegistry::new();
//! receiver.register_native("emit", 1, |_, _| Ok(Value::Null));
//! let model: Arc<dyn mpart_cost::CostModel> = Arc::new(DataSizeModel::new());
//! let a = manager.open_session(
//!     Arc::clone(&program), "double", Arc::clone(&model),
//!     BuiltinRegistry::new(), receiver.clone(),
//! )?;
//! let b = manager.open_session(
//!     Arc::clone(&program), "double", model,
//!     BuiltinRegistry::new(), receiver,
//! )?;
//! // The second session reused the first one's static analysis.
//! assert_eq!(manager.cache().hits(), 1);
//! let out = manager.deliver(a, |_| Ok(vec![Value::Int(21)]))?;
//! assert_eq!(out.ret, Some(Value::Int(42)));
//! let out = manager.deliver(b, |_| Ok(vec![Value::Int(5)]))?;
//! assert_eq!(out.ret, Some(Value::Int(10)));
//! assert_eq!(manager.shutdown(), 2);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mpart_analysis::cache::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};

use mpart_obs::{Counter, Gauge, ObsHub, PlanReason, TraceEvent};

use crate::failure::{self, DeadLetter, DeadLetterRing, FailureConfig, FailureKind};
use crate::health::DegradationController;
use crate::journal::{JournalRecord, SessionJournal, SessionSnapshot};
use crate::modulator::Modulator;
use crate::profile::TriggerPolicy;
use crate::reconfig::{GuardConfig, GuardVerdict, PlanGuard, QuarantineList, ReconfigUnit};
use crate::subscriber::{Proposal, Subscriber, Timing};
use crate::{PartitionedHandler, PseId};
use mpart_obs::pse_mask;

/// Identifies one open session within a [`SessionManager`].
pub type SessionId = usize;

/// Sizing and adaptation policy of a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Worker threads in the pool (sessions shard as `id % workers`).
    pub workers: usize,
    /// Capacity of the shared [`AnalysisCache`].
    pub cache_capacity: usize,
    /// Per-session reconfiguration trigger ([`TriggerPolicy::Never`]
    /// freezes every session's initial static plan).
    pub trigger: TriggerPolicy,
    /// Marshalling work charged per wire byte on each side when pricing
    /// candidate splits under the execution-time model (see
    /// [`ReconfigUnit::with_serialize_cost`]). With no speed estimates the
    /// exec-time weight of a PSE is then `β·bytes + max(w_mod, w_demod)`:
    /// bytes on the link plus the busier side's work.
    pub serialize_work_per_byte: f64,
    /// Failure-domain tuning: retry budget and dead-letter ring capacity
    /// (see [`crate::failure`]).
    pub failure: FailureConfig,
    /// Capacity of each worker's bounded ingress queue (min 1). A full
    /// queue *sheds*: [`DeliveryClass::Profiling`] deliveries are dropped
    /// oldest-first, [`DeliveryClass::Continuation`] deliveries are
    /// rejected with [`IrError::Overloaded`].
    pub ingress_capacity: usize,
    /// Consecutive handler panics before a session falls back to the
    /// entry cut (min 1).
    pub degrade_after: u32,
    /// Consecutive successes before a degraded session re-promotes its
    /// stashed plan (min 1).
    pub promote_after: u32,
    /// When set, session control state — opens, plan commits, ack
    /// watermarks, profiling flags; never payloads — is checkpointed to
    /// the journal for crash-safe recovery (see [`crate::journal`]).
    pub journal: Option<Arc<SessionJournal>>,
    /// When set, every plan switch runs under a [`PlanGuard`] canary
    /// window: the first `canary` envelopes after a commit are compared
    /// against the pre-switch baseline, a breach rolls back to the
    /// retained prior plan, and the offender is quarantined (DESIGN.md
    /// §16). `None` (the default) installs switches directly, as before.
    pub guard: Option<GuardConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            trigger: TriggerPolicy::Never,
            serialize_work_per_byte: 0.0,
            failure: FailureConfig::default(),
            ingress_capacity: 1024,
            degrade_after: 3,
            promote_after: 3,
            journal: None,
            guard: None,
        }
    }
}

impl SessionConfig {
    /// Sets the worker pool size (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the analysis cache capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Sets the per-session reconfiguration trigger.
    pub fn with_trigger(mut self, trigger: TriggerPolicy) -> Self {
        self.trigger = trigger;
        self
    }

    /// Sets the marshalling work charged per wire byte under the
    /// execution-time model (default 0).
    pub fn with_serialize_cost(mut self, work_per_byte: f64) -> Self {
        self.serialize_work_per_byte = work_per_byte;
        self
    }

    /// Sets the failure-domain tuning (retry budget, dead-letter
    /// capacity).
    pub fn with_failure(mut self, failure: FailureConfig) -> Self {
        self.failure = failure;
        self
    }

    /// Sets the per-worker ingress queue capacity (min 1).
    pub fn with_ingress_capacity(mut self, capacity: usize) -> Self {
        self.ingress_capacity = capacity.max(1);
        self
    }

    /// Sets the panic-degradation hysteresis thresholds (each min 1).
    pub fn with_degradation(mut self, degrade_after: u32, promote_after: u32) -> Self {
        self.degrade_after = degrade_after.max(1);
        self.promote_after = promote_after.max(1);
        self
    }

    /// Attaches a session journal for crash-safe recovery.
    pub fn with_journal(mut self, journal: Arc<SessionJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Enables canary-guarded plan switches with rollback and quarantine
    /// (see [`GuardConfig`]).
    pub fn with_guard(mut self, guard: GuardConfig) -> Self {
        self.guard = Some(guard);
        self
    }
}

/// Shed class of a delivery under backpressure: continuations carry
/// application state and are *rejected* with an error the caller can
/// retry; profiling-only traffic is telemetry and is *dropped*
/// oldest-first (the freshest sample wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryClass {
    /// An application continuation; rejected when the queue is full.
    Continuation,
    /// Profiling-only traffic; sheds oldest-first when the queue is full.
    Profiling,
}

/// Outcome of one in-process delivery through a session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Per-session message number (1-based).
    pub seq: u64,
    /// The PSE the message split at.
    pub split_pse: PseId,
    /// Wire size of the packed continuation.
    pub wire_bytes: usize,
    /// Plan epoch the message was modulated under.
    pub epoch: u64,
    /// Handler return value.
    pub ret: Option<Value>,
    /// Whether this message triggered a per-session plan reconfiguration.
    pub reconfigured: bool,
    /// Modulator-side work units spent on this message.
    pub mod_work: u64,
    /// Demodulator-side work units spent on this message.
    pub demod_work: u64,
}

type EventFn = Box<dyn FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send>;

enum Job {
    Open(Box<SessionState>),
    Deliver {
        slot: usize,
        class: DeliveryClass,
        make_event: EventFn,
        reply: Sender<Result<SessionOutcome, IrError>>,
    },
    /// Tear down the session in `slot`, replying with its final ack
    /// watermark. `retire` additionally journals a [`JournalRecord::Close`]
    /// so replay drops the session for good; an evict (migration cleanup)
    /// leaves the journal tail for the new host to drain.
    Close {
        slot: usize,
        retire: bool,
        reply: Sender<Result<u64, IrError>>,
    },
    /// A two-phase plan-lifecycle step (prepare or commit), executed on
    /// the owning worker so it serializes behind in-flight deliveries.
    Plan {
        slot: usize,
        action: PlanAction,
        reply: Sender<Result<PlanResponse, IrError>>,
    },
    Stop,
}

/// The plan-lifecycle step carried by [`Job::Plan`].
enum PlanAction {
    /// Validate the candidate without touching the serving plan.
    Prepare(Vec<PseId>),
    /// Install the candidate and open its canary window.
    Commit(Vec<PseId>),
}

/// The worker's answer to a [`Job::Plan`].
enum PlanResponse {
    Prepared(PrepareOutcome),
    Committed(u64),
}

/// What the endpoint concluded about a candidate plan during the
/// two-phase `Prepare` step (DESIGN.md §16). Only
/// [`PrepareOutcome::Ready`] may be followed by a commit; every other
/// outcome leaves the old plan serving untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareOutcome {
    /// The candidate validated: analysis present, the set is a cut, and
    /// it is not quarantined.
    Ready,
    /// The candidate failed validation (reason attached).
    Rejected(String),
    /// The candidate is on the quarantine blacklist after a recent
    /// guard-breach rollback.
    Quarantined,
}

/// How a delivery entered (or failed to enter) a shard's ingress queue.
enum Ingress {
    /// Enqueued without shedding.
    Enqueued,
    /// Enqueued after dropping the oldest profiling-class delivery.
    ShedOldest,
}

/// A bounded per-worker ingress queue with the shed policy. Control jobs
/// (open/stop) always enqueue; deliveries respect the capacity.
struct ShardQueue {
    capacity: usize,
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            capacity: capacity.max(1),
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push_control(&self, job: Job) {
        self.jobs.lock().expect("shard queue poisoned").push_back(job);
        self.ready.notify_one();
    }

    /// Enqueues a delivery, shedding under backpressure. Returns the job
    /// back (`Err`) when it must be rejected; a shed *older* delivery has
    /// its waiter failed with [`IrError::Overloaded`] through its reply
    /// channel.
    fn push_deliver(&self, job: Job) -> Result<Ingress, Job> {
        let mut jobs = self.jobs.lock().expect("shard queue poisoned");
        if jobs.len() < self.capacity {
            jobs.push_back(job);
            self.ready.notify_one();
            return Ok(Ingress::Enqueued);
        }
        let class = match &job {
            Job::Deliver { class, .. } => *class,
            _ => unreachable!("push_deliver only accepts Job::Deliver"),
        };
        if class == DeliveryClass::Profiling {
            let oldest = jobs
                .iter()
                .position(|j| matches!(j, Job::Deliver { class: DeliveryClass::Profiling, .. }));
            if let Some(at) = oldest {
                if let Some(Job::Deliver { reply, .. }) = jobs.remove(at) {
                    let _ = reply.send(Err(IrError::Overloaded(
                        "profiling delivery shed oldest-first under backpressure".into(),
                    )));
                }
                jobs.push_back(job);
                self.ready.notify_one();
                return Ok(Ingress::ShedOldest);
            }
        }
        Err(job)
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock().expect("shard queue poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.ready.wait(jobs).expect("shard queue poisoned");
        }
    }
}

/// One session's runtime state, owned by exactly one worker thread.
struct SessionState {
    handler: Arc<PartitionedHandler>,
    modulator: Modulator,
    /// Demodulator + Reconfiguration Unit: the receiver-side step.
    subscriber: Subscriber,
    sender_builtins: BuiltinRegistry,
    receiver_ctx: ExecCtx,
    seq: u64,
    /// Entry-cut fallback driven by consecutive handler panics.
    degradation: DegradationController,
    /// Quarantined envelopes, shared with the manager for inspection.
    deadletter: Arc<DeadLetterRing>,
    /// `(journal, journaled session id)` when checkpointing is on.
    journal: Option<(Arc<SessionJournal>, u64)>,
    /// Canary guard over plan switches ([`SessionConfig::with_guard`]).
    guard: Option<PlanGuard>,
    /// Decaying blacklist of rolled-back active sets.
    quarantine: QuarantineList,
    panics_modulator: Counter,
    panics_demodulator: Counter,
    quarantined_total: Counter,
}

impl SessionState {
    /// One delivery under the failure domain: handler invocations run
    /// isolated ([`failure::isolate`]); a failed envelope dead-letters
    /// immediately (in-process deliveries are one-shot — there is no
    /// retransmission buffer to retry from), panics feed the degradation
    /// hysteresis, and successes checkpoint the ack watermark.
    fn deliver(&mut self, make_event: EventFn) -> Result<SessionOutcome, IrError> {
        self.seq += 1;
        let seq = self.seq;
        let result = self.deliver_inner(make_event);
        // Feed the plan guard. The envelope that itself performed a
        // switch ran (mostly) under the old plan, so it does not count
        // toward the new plan's canary window.
        match &result {
            Ok(outcome) if !outcome.reconfigured => {
                self.observe_guard(true, outcome.mod_work + outcome.demod_work);
            }
            Ok(_) => {}
            Err(_) => self.observe_guard(false, 0),
        }
        match &result {
            Ok(_) => {
                if self.degradation.record_success().is_some() {
                    self.checkpoint_plan();
                }
                self.journal_append(JournalRecord::Ack {
                    session: self.journal.as_ref().map(|(_, id)| *id).unwrap_or(0),
                    watermark: seq,
                });
            }
            Err(e) => {
                let kind = match e {
                    IrError::HandlerPanic(_) => FailureKind::Panic,
                    IrError::Deadline(_) => FailureKind::Deadline,
                    _ => FailureKind::Decode,
                };
                self.deadletter.push(DeadLetter { seq, kind, failures: 1, error: e.to_string() });
                self.quarantined_total.inc();
                self.handler.obs().record(TraceEvent::Quarantined { seq, failures: 1 });
                if matches!(e, IrError::HandlerPanic(_))
                    && self.degradation.record_failure().is_some()
                {
                    self.checkpoint_plan();
                }
            }
        }
        result
    }

    fn journal_append(&self, record: JournalRecord) {
        if let Some((journal, _)) = &self.journal {
            // The in-memory copy always lands; a transiently unwritable
            // disk degrades durability, not correctness.
            let _ = journal.append(record);
        }
    }

    /// Checkpoints the current plan epoch + active set + profiling flags,
    /// all from one consistent plan read.
    fn checkpoint_plan(&self) {
        if let Some((journal, id)) = &self.journal {
            let view = self.handler.plan().snapshot();
            let _ = journal.append(JournalRecord::PlanCommit {
                session: *id,
                epoch: view.epoch,
                active: view.active(),
                reason: "commit".into(),
            });
            let _ = journal.append(JournalRecord::Flags { session: *id, mask: view.profile });
        }
    }

    fn journal_id(&self) -> u64 {
        self.journal.as_ref().map(|(_, id)| *id).unwrap_or(0)
    }

    /// Checkpoints the guard's canary window (or its absence) so a
    /// restart resumes mid-canary with the right envelope count left.
    fn journal_guard_state(&self) {
        let Some(guard) = &self.guard else {
            return;
        };
        let session = self.journal_id();
        match guard.canary_state() {
            Some((prior_epoch, prior_active, epoch, remaining)) => {
                self.journal_append(JournalRecord::Guard {
                    session,
                    prior_epoch,
                    epoch,
                    remaining,
                    prior_active: prior_active.to_vec(),
                });
            }
            None => self.journal_append(JournalRecord::Guard {
                session,
                prior_epoch: 0,
                epoch: 0,
                remaining: 0,
                prior_active: vec![],
            }),
        }
    }

    /// Endpoint-side `Prepare`: validates a candidate active set without
    /// touching the serving plan. Counted on
    /// `plan_prepares_total{outcome}`.
    fn prepare_plan(&mut self, active: &[PseId]) -> PrepareOutcome {
        let metrics = self.handler.metrics();
        if self.quarantine.contains(active) {
            metrics.note_prepare("quarantined");
            return PrepareOutcome::Quarantined;
        }
        match self.handler.validate_candidate(active) {
            Ok(()) => {
                metrics.note_prepare("ready");
                PrepareOutcome::Ready
            }
            Err(e) => {
                metrics.note_prepare("rejected");
                PrepareOutcome::Rejected(e.to_string())
            }
        }
    }

    /// `Commit`: installs a prepared candidate under
    /// [`PlanReason::Install`] and opens its canary window. Re-validates
    /// defensively — a commit that races a rollback's quarantine entry
    /// must not land.
    ///
    /// # Errors
    ///
    /// [`IrError::Invalid`] for a quarantined candidate, validation
    /// errors from [`PartitionedHandler::validate_candidate`].
    fn commit_plan(&mut self, active: &[PseId]) -> Result<u64, IrError> {
        if self.quarantine.contains(active) {
            self.handler.metrics().note_prepare("quarantined");
            return Err(IrError::Invalid(format!("plan {active:?} is quarantined")));
        }
        self.handler.validate_candidate(active)?;
        let serving = self.handler.plan().snapshot();
        if serving.split == pse_mask(active) {
            return Ok(serving.epoch);
        }
        let epoch = self.install_guarded(active, PlanReason::Install);
        self.checkpoint_plan();
        self.journal_guard_state();
        Ok(epoch)
    }

    /// Installs `active` over the serving plan, tells the Reconfiguration
    /// Unit the epoch bump is expected, and opens the canary window.
    fn install_guarded(&mut self, active: &[PseId], reason: PlanReason) -> u64 {
        let prior = self.handler.plan().snapshot();
        let epoch = self.handler.install_plan_reason(active, reason);
        self.subscriber.acknowledge_epoch(epoch);
        if let Some(guard) = &mut self.guard {
            guard.begin_canary(prior.epoch, prior.active(), epoch, active.to_vec());
        }
        epoch
    }

    /// The single chokepoint for feedback-driven plan switches. The subscriber step has already
    /// dropped a re-selection equal to the serving plan and validated the
    /// cut; what remains is this session's policy — a quarantined cut is
    /// refused, and nothing switches while a canary window is still being
    /// judged — then the install and the new canary. Returns whether a
    /// switch happened.
    fn try_switch_plan(&mut self, proposal: Option<Proposal>) -> bool {
        // One candidate evaluation ages the quarantine blacklist a step.
        self.decay_quarantine();
        let Some(proposal) = proposal else {
            return false;
        };
        if self.guard.as_ref().is_some_and(|g| g.in_canary()) {
            return false;
        }
        if self.quarantine.contains(proposal.active()) {
            self.handler.metrics().note_prepare("quarantined");
            return false;
        }
        self.install_guarded(proposal.active(), PlanReason::Reconfig);
        self.journal_guard_state();
        true
    }

    /// Ages the quarantine blacklist one step, journaling expiries.
    fn decay_quarantine(&mut self) {
        if self.quarantine.is_empty() {
            return;
        }
        let before: Vec<Vec<PseId>> =
            self.quarantine.entries().iter().map(|(set, _)| set.clone()).collect();
        self.quarantine.decay();
        let session = self.journal_id();
        for set in before {
            if !self.quarantine.contains(&set) {
                self.journal_append(JournalRecord::Quarantine { session, ttl: 0, active: set });
            }
        }
        self.handler.metrics().note_quarantine_size(self.quarantine.len());
    }

    /// Feeds one envelope outcome to the guard and acts on the verdict:
    /// promotion clears the journaled window, a breach rolls the plan
    /// back and quarantines the offender.
    fn observe_guard(&mut self, ok: bool, work: u64) {
        let Some(guard) = &mut self.guard else {
            return;
        };
        let in_canary = guard.in_canary();
        match guard.observe(ok, work) {
            GuardVerdict::Idle => {}
            GuardVerdict::Watching { .. } => self.journal_guard_state(),
            GuardVerdict::Promoted { .. } => {
                if in_canary {
                    self.journal_guard_state();
                }
            }
            GuardVerdict::Rollback { prior_epoch, prior_active, from_epoch, active, observed } => {
                self.rollback(prior_epoch, prior_active, from_epoch, active, observed);
            }
        }
    }

    /// Guard-breach rollback: reinstall the retained prior generation
    /// (falling back to the journal-carried active set when the epoch
    /// fell out of plan retention), quarantine the offender, and
    /// checkpoint everything.
    fn rollback(
        &mut self,
        prior_epoch: u64,
        prior_active: Vec<PseId>,
        from_epoch: u64,
        active: Vec<PseId>,
        observed: u64,
    ) {
        let target = self.handler.plan().active_at(prior_epoch).unwrap_or(prior_active);
        let to_epoch = self.handler.install_plan_reason(&target, PlanReason::Rollback);
        self.subscriber.acknowledge_epoch(to_epoch);
        let ttl = self.guard.as_ref().map(|g| g.config().quarantine_decay).unwrap_or(0);
        self.quarantine.quarantine(&active, ttl);
        let metrics = self.handler.metrics();
        metrics.note_rollback();
        metrics.note_quarantine_size(self.quarantine.len());
        self.handler.obs().record(TraceEvent::PlanRollback {
            from_epoch,
            to_epoch,
            quarantined_mask: pse_mask(&active),
            observed,
        });
        let session = self.journal_id();
        self.journal_guard_state();
        self.journal_append(JournalRecord::Quarantine { session, ttl, active });
        self.checkpoint_plan();
    }

    /// Counts and traces a handler half's failure if it was a panic.
    fn note_panic(&self, side: &Counter, e: IrError) -> IrError {
        if matches!(e, IrError::HandlerPanic(_)) {
            side.inc();
            self.handler.obs().record(TraceEvent::HandlerPanic { seq: self.seq });
        }
        e
    }

    fn deliver_inner(&mut self, make_event: EventFn) -> Result<SessionOutcome, IrError> {
        let mut sender_ctx =
            ExecCtx::without_digests(self.handler.program(), self.sender_builtins.clone());
        let args = make_event(&mut sender_ctx)?;
        let run = {
            let modulator = &self.modulator;
            match failure::isolate(|| modulator.handle(&mut sender_ctx, args)) {
                Ok(run) => run,
                Err(e) => return Err(self.note_panic(&self.panics_modulator, e)),
            }
        };
        let wire_bytes = run.message.wire_size();
        let epoch = run.message.epoch;
        let split_pse = run.message.pse;
        let mod_work = run.mod_work;
        let applied = match self.subscriber.apply(
            &mut self.receiver_ctx,
            &run.message,
            run.samples,
            |demod| Timing::work(mod_work, demod),
        ) {
            Ok(applied) => applied,
            Err(e) => return Err(self.note_panic(&self.panics_demodulator, e)),
        };
        let demod = applied.demod;
        let proposal = applied.proposal?;

        let reconfigured = applied.reselected && self.try_switch_plan(proposal);
        if reconfigured {
            self.checkpoint_plan();
        }
        Ok(SessionOutcome {
            seq: self.seq,
            split_pse,
            wire_bytes,
            epoch,
            ret: demod.ret,
            reconfigured,
            mod_work: run.mod_work,
            demod_work: demod.demod_work,
        })
    }
}

struct WorkerHandle {
    queue: Arc<ShardQueue>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Clone)]
struct ManagerMetrics {
    sessions_open: Gauge,
    worker_slots_active: Gauge,
    closed_close: Counter,
    closed_evict: Counter,
    messages_total: Counter,
    errors_total: Counter,
    shed_oldest: Counter,
    shed_reject: Counter,
    sessions_recovered: Gauge,
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_evictions: Gauge,
}

/// A deferred [`SessionOutcome`]: returned by
/// [`SessionManager::submit`], resolved by [`wait`](Pending::wait).
#[must_use = "a pending delivery reports errors through wait()"]
pub struct Pending {
    rx: Receiver<Result<SessionOutcome, IrError>>,
}

impl Pending {
    /// Blocks until the worker finishes the delivery.
    ///
    /// # Errors
    ///
    /// Propagates handler errors; returns [`IrError::Continuation`] if
    /// the worker stopped.
    pub fn wait(self) -> Result<SessionOutcome, IrError> {
        self.rx.recv().map_err(|_| IrError::Continuation("session worker stopped".into()))?
    }

    /// Blocks at most `budget` for the delivery; a stalled worker yields
    /// [`IrError::Deadline`] instead of hanging the caller. The delivery
    /// itself is not cancelled — the caller decides whether to back off
    /// and retry or give up.
    ///
    /// # Errors
    ///
    /// Handler errors, [`IrError::Deadline`] on timeout, and
    /// [`IrError::Continuation`] if the worker stopped.
    pub fn wait_deadline(self, budget: Duration) -> Result<SessionOutcome, IrError> {
        match self.rx.recv_timeout(budget) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                Err(IrError::Deadline(format!("delivery exceeded its {budget:?} budget")))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(IrError::Continuation("session worker stopped".into()))
            }
        }
    }
}

/// Shards N concurrent handler sessions across a fixed worker pool. See
/// the [module docs](self) for the ownership and sharing rules.
pub struct SessionManager {
    workers: Vec<WorkerHandle>,
    sessions: Vec<SessionEntry>,
    cache: Arc<AnalysisCache>,
    config: SessionConfig,
    obs: Arc<ObsHub>,
    metrics: ManagerMetrics,
    processed: Arc<AtomicU64>,
    recovered: u64,
}

struct SessionEntry {
    worker: usize,
    slot: usize,
    handler: Arc<PartitionedHandler>,
    deadletter: Arc<DeadLetterRing>,
    /// Journal id this session checkpoints under (the manager-local id
    /// unless opened `_as` a cluster-global id).
    journal_id: u64,
    /// Closed sessions keep their entry (slots are positional) but
    /// refuse deliveries and vanish from the live accessors.
    closed: bool,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("workers", &self.workers.len())
            .field("sessions", &self.sessions.len())
            .field("cache_hits", &self.cache.hits())
            .finish()
    }
}

impl SessionManager {
    /// Spawns the worker pool (no sessions yet).
    pub fn new(config: SessionConfig) -> Self {
        let cache = Arc::new(AnalysisCache::new(config.cache_capacity));
        Self::with_shared_cache(config, cache)
    }

    /// Spawns the worker pool around an *existing* analysis cache. This
    /// is the crash-recovery path: a restarted manager reuses the warm
    /// cache so [`restore_session`](Self::restore_session) re-opens every
    /// journaled session with zero static re-analysis (every open is a
    /// cache hit, visible on the cache gauges).
    pub fn with_shared_cache(config: SessionConfig, cache: Arc<AnalysisCache>) -> Self {
        let obs = Arc::new(ObsHub::new());
        let registry = obs.registry();
        let metrics = ManagerMetrics {
            sessions_open: registry.gauge("sessions_open", &[]),
            worker_slots_active: registry.gauge("worker_slots_active", &[]),
            closed_close: registry.counter("sessions_closed_total", &[("reason", "close")]),
            closed_evict: registry.counter("sessions_closed_total", &[("reason", "evict")]),
            messages_total: registry.counter("session_messages_total", &[]),
            errors_total: registry.counter("session_errors_total", &[]),
            shed_oldest: registry.counter("shed_total", &[("reason", "oldest_drop")]),
            shed_reject: registry.counter("shed_total", &[("reason", "queue_full")]),
            sessions_recovered: registry.gauge("sessions_recovered", &[]),
            cache_hits: registry.gauge("analysis_cache_hits", &[]),
            cache_misses: registry.gauge("analysis_cache_misses", &[]),
            cache_evictions: registry.gauge("analysis_cache_evictions", &[]),
        };
        let processed = Arc::new(AtomicU64::new(0));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                Self::spawn_worker(metrics.clone(), Arc::clone(&processed), config.ingress_capacity)
            })
            .collect();
        SessionManager {
            workers,
            sessions: Vec::new(),
            cache,
            config,
            obs,
            metrics,
            processed,
            recovered: 0,
        }
    }

    fn spawn_worker(
        metrics: ManagerMetrics,
        processed: Arc<AtomicU64>,
        ingress_capacity: usize,
    ) -> WorkerHandle {
        let queue = Arc::new(ShardQueue::new(ingress_capacity));
        let worker_queue = Arc::clone(&queue);
        let thread = std::thread::spawn(move || {
            // Slots are positional and never reused: a closed session
            // leaves a `None` tombstone so later slots keep their index,
            // and the tombstone itself is the fence — a late delivery to
            // a closed slot errors instead of reaching stale state.
            let mut sessions: Vec<Option<SessionState>> = Vec::new();
            loop {
                match worker_queue.pop() {
                    Job::Open(state) => sessions.push(Some(*state)),
                    Job::Deliver { slot, class: _, make_event, reply } => {
                        // Worker-level backstop: `SessionState::deliver`
                        // already isolates the handler halves, but a
                        // panic anywhere else in the delivery path must
                        // fail the envelope, never the worker.
                        let result = match sessions.get_mut(slot) {
                            Some(Some(state)) => failure::isolate(|| state.deliver(make_event)),
                            Some(None) => {
                                Err(IrError::Continuation(format!("worker slot {slot} is closed")))
                            }
                            None => Err(IrError::Continuation(format!(
                                "no session in worker slot {slot}"
                            ))),
                        };
                        match &result {
                            Ok(_) => {
                                metrics.messages_total.inc();
                                processed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => metrics.errors_total.inc(),
                        }
                        // A dropped reply handle is not an error: the
                        // caller abandoned a fire-and-forget delivery.
                        let _ = reply.send(result);
                    }
                    Job::Close { slot, retire, reply } => {
                        let result = match sessions.get_mut(slot).and_then(Option::take) {
                            Some(state) => {
                                if retire {
                                    if let Some((journal, jid)) = &state.journal {
                                        let _ =
                                            journal.append(JournalRecord::Close { session: *jid });
                                    }
                                }
                                Ok(state.seq)
                            }
                            None => Err(IrError::Unresolved(format!(
                                "worker slot {slot} is already closed"
                            ))),
                        };
                        let _ = reply.send(result);
                    }
                    Job::Plan { slot, action, reply } => {
                        let result = match sessions.get_mut(slot) {
                            Some(Some(state)) => match action {
                                PlanAction::Prepare(active) => {
                                    Ok(PlanResponse::Prepared(state.prepare_plan(&active)))
                                }
                                PlanAction::Commit(active) => {
                                    state.commit_plan(&active).map(PlanResponse::Committed)
                                }
                            },
                            Some(None) => {
                                Err(IrError::Continuation(format!("worker slot {slot} is closed")))
                            }
                            None => Err(IrError::Continuation(format!(
                                "no session in worker slot {slot}"
                            ))),
                        };
                        let _ = reply.send(result);
                    }
                    Job::Stop => break,
                }
            }
        });
        WorkerHandle { queue, thread: Some(thread) }
    }

    /// Opens a session for `func_name` under `model`, sharing the static
    /// analysis with any earlier session of the same handler through the
    /// manager's [`AnalysisCache`]. The session is pinned to worker
    /// `session_id % workers` for its lifetime.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn open_session(
        &mut self,
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
    ) -> Result<SessionId, IrError> {
        self.open_session_inner(
            program,
            func_name,
            model,
            sender_builtins,
            receiver_builtins,
            None,
            None,
        )
    }

    /// [`open_session`](Self::open_session) journaled under an explicit
    /// id instead of the manager-local session index. A multi-node router
    /// shares one journal across several managers whose local indices all
    /// start at 0; journaling under the router's cluster-global id keeps
    /// the shared journal collision-free and lets a failover drain *one*
    /// session's records regardless of which node last hosted it.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn open_session_as(
        &mut self,
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        journal_id: u64,
    ) -> Result<SessionId, IrError> {
        self.open_session_inner(
            program,
            func_name,
            model,
            sender_builtins,
            receiver_builtins,
            None,
            Some(journal_id),
        )
    }

    /// Re-opens a session from a journal [`SessionSnapshot`]: the static
    /// analysis comes from the shared cache (a hit when the manager was
    /// built with [`with_shared_cache`](Self::with_shared_cache) — zero
    /// re-analysis), the journaled active set and profiling flags are
    /// reinstalled, and sequence numbering resumes from the journaled ack
    /// watermark. The caller supplies the deployment-time program, model,
    /// and builtins — they are code, not state, and are not journaled.
    ///
    /// Plan *epochs* restart monotone in the new process; the restored
    /// active set and watermark are what in-flight retransmission needs.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn restore_session(
        &mut self,
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        snapshot: &SessionSnapshot,
    ) -> Result<SessionId, IrError> {
        self.open_session_inner(
            program,
            func_name,
            model,
            sender_builtins,
            receiver_builtins,
            Some(snapshot),
            None,
        )
    }

    /// [`restore_session`](Self::restore_session) journaled under an
    /// explicit id (see [`open_session_as`](Self::open_session_as)): the
    /// migration path a router takes when it re-homes a dead node's
    /// session onto a survivor.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_session_as(
        &mut self,
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        snapshot: &SessionSnapshot,
        journal_id: u64,
    ) -> Result<SessionId, IrError> {
        self.open_session_inner(
            program,
            func_name,
            model,
            sender_builtins,
            receiver_builtins,
            Some(snapshot),
            Some(journal_id),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn open_session_inner(
        &mut self,
        program: Arc<Program>,
        func_name: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        restore: Option<&SessionSnapshot>,
        journal_id: Option<u64>,
    ) -> Result<SessionId, IrError> {
        let kind = model.kind();
        let model_name = model.name().to_string();
        let handler = PartitionedHandler::analyze_cached(
            Arc::clone(&program),
            func_name,
            model,
            &self.cache,
        )?;
        if let Some(snap) = restore {
            if snap.active != handler.plan().active() {
                handler.install_plan_reason(&snap.active, PlanReason::Install);
            }
            for pse in 0..handler.plan().len() {
                handler.plan().set_profiled(pse, snap.flags >> pse & 1 == 1);
            }
        }
        let reconfig = ReconfigUnit::new(Arc::clone(handler.analysis()), kind, self.config.trigger)
            .with_serialize_cost(self.config.serialize_work_per_byte)
            .with_obs(Arc::clone(handler.obs()))
            .with_plan_watch(handler.plan().clone());
        let receiver_ctx = ExecCtx::without_digests(&program, receiver_builtins);

        let id = self.sessions.len();
        let registry = handler.obs().registry();
        let panics_modulator = registry.counter("handler_panics_total", &[("side", "modulator")]);
        let panics_demodulator =
            registry.counter("handler_panics_total", &[("side", "demodulator")]);
        let quarantined_total = registry.counter("quarantined_total", &[]);
        let deadletter = Arc::new(DeadLetterRing::new(self.config.failure.deadletter_capacity));
        let degradation = DegradationController::new(
            Arc::clone(&handler),
            self.config.degrade_after,
            self.config.promote_after,
        );
        let journal =
            self.config.journal.as_ref().map(|j| (Arc::clone(j), journal_id.unwrap_or(id as u64)));
        if let Some((journal, jid)) = &journal {
            let _ = journal.append(JournalRecord::Open {
                session: *jid,
                func: func_name.to_string(),
                model: model_name,
            });
            let view = handler.plan().snapshot();
            let _ = journal.append(JournalRecord::PlanCommit {
                session: *jid,
                epoch: view.epoch,
                active: view.active(),
                reason: "initial".into(),
            });
            if let Some(snap) = restore {
                let _ =
                    journal.append(JournalRecord::Ack { session: *jid, watermark: snap.watermark });
                let _ = journal.append(JournalRecord::Flags { session: *jid, mask: snap.flags });
                if let Some(gs) = &snap.guard {
                    let _ = journal.append(JournalRecord::Guard {
                        session: *jid,
                        prior_epoch: gs.prior_epoch,
                        epoch: gs.epoch,
                        remaining: gs.remaining,
                        prior_active: gs.prior_active.clone(),
                    });
                }
                for (active, ttl) in &snap.quarantined {
                    let _ = journal.append(JournalRecord::Quarantine {
                        session: *jid,
                        ttl: *ttl,
                        active: active.clone(),
                    });
                }
            }
        }
        let seq = restore.map(|s| s.watermark).unwrap_or(0);
        if let Some(snap) = restore {
            handler.obs().record(TraceEvent::Recovered {
                epoch: handler.plan().epoch(),
                watermark: snap.watermark,
            });
            self.recovered += 1;
            self.metrics.sessions_recovered.set(self.recovered as f64);
        }
        let mut guard = self.config.guard.map(PlanGuard::new);
        let mut quarantine = QuarantineList::new();
        if let Some(snap) = restore {
            quarantine = QuarantineList::restore(snap.quarantined.clone());
            handler.metrics().note_quarantine_size(quarantine.len());
            if let (Some(g), Some(gs)) = (guard.as_mut(), &snap.guard) {
                // Plan epochs restart in the new process: the watched
                // epoch is whatever the restore-install produced, and a
                // breach falls back to the journal-carried prior active
                // set (the old epochs no longer exist in plan retention).
                g.resume_canary(
                    gs.prior_epoch,
                    gs.prior_active.clone(),
                    handler.plan().epoch(),
                    gs.remaining,
                    snap.active.clone(),
                );
            }
        }
        let state = SessionState {
            modulator: handler.modulator(),
            subscriber: Subscriber::new(Arc::clone(&handler), reconfig),
            sender_builtins,
            receiver_ctx,
            seq,
            handler: Arc::clone(&handler),
            degradation,
            deadletter: Arc::clone(&deadletter),
            journal,
            guard,
            quarantine,
            panics_modulator,
            panics_demodulator,
            quarantined_total,
        };

        let worker = id % self.workers.len();
        // Counts closed entries too: worker-side slots are positional
        // tombstones, so the next slot index is "entries ever assigned
        // to this worker", not the live count.
        let slot = self.sessions.iter().filter(|s| s.worker == worker).count();
        self.workers[worker].queue.push_control(Job::Open(Box::new(state)));
        self.sessions.push(SessionEntry {
            worker,
            slot,
            handler,
            deadletter,
            journal_id: journal_id.unwrap_or(id as u64),
            closed: false,
        });
        self.set_live_gauges();
        self.refresh_cache_metrics();
        Ok(id)
    }

    /// Closes `session` for good: tears down its worker slot, rejects
    /// anything still in (or later entering) its ingress path, drops its
    /// dead-letter ring from inspection, and journals a
    /// [`JournalRecord::Close`] so replay can never resurrect it. Runs
    /// behind any deliveries already queued (FIFO per worker), so the
    /// returned final ack watermark is exact.
    ///
    /// # Errors
    ///
    /// [`IrError::Unresolved`] for an unknown or already-closed session.
    pub fn close_session(&mut self, session: SessionId) -> Result<u64, IrError> {
        self.close_session_inner(session, true)
    }

    /// [`close_session`](Self::close_session) without retiring the
    /// journal tail: the local copy is torn down but the session's
    /// journaled state survives for whichever node hosts it next. This is
    /// the migration/orphan-reclaim path a router takes to retract a
    /// copy it has re-homed elsewhere.
    ///
    /// # Errors
    ///
    /// [`IrError::Unresolved`] for an unknown or already-closed session.
    pub fn evict_session(&mut self, session: SessionId) -> Result<u64, IrError> {
        self.close_session_inner(session, false)
    }

    fn close_session_inner(&mut self, session: SessionId, retire: bool) -> Result<u64, IrError> {
        let entry = self
            .sessions
            .get(session)
            .ok_or_else(|| IrError::Unresolved(format!("unknown session {session}")))?;
        if entry.closed {
            return Err(IrError::Unresolved(format!("session {session} is closed")));
        }
        let (reply, rx) = channel();
        self.workers[entry.worker].queue.push_control(Job::Close {
            slot: entry.slot,
            retire,
            reply,
        });
        let watermark =
            rx.recv().map_err(|_| IrError::Continuation("session worker stopped".into()))??;
        let journal_id = entry.journal_id;
        self.sessions[session].closed = true;
        if retire {
            self.metrics.closed_close.inc();
        } else {
            self.metrics.closed_evict.inc();
        }
        self.set_live_gauges();
        self.obs.record(TraceEvent::SessionClosed { session: journal_id, watermark });
        Ok(watermark)
    }

    fn set_live_gauges(&self) {
        let live = self.live_sessions() as f64;
        self.metrics.sessions_open.set(live);
        self.metrics.worker_slots_active.set(live);
    }

    /// Enqueues one delivery on the session's worker and returns
    /// immediately; resolve it with [`Pending::wait`]. Deliveries to the
    /// same session run in submission order; deliveries to sessions on
    /// different workers run concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Unresolved`] for an unknown session id and
    /// [`IrError::Continuation`] if the worker stopped.
    pub fn submit(
        &self,
        session: SessionId,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send + 'static,
    ) -> Result<Pending, IrError> {
        self.submit_classed(session, DeliveryClass::Continuation, make_event)
    }

    /// [`submit`](Self::submit) with an explicit shed class: under
    /// backpressure (a full ingress queue) a
    /// [`DeliveryClass::Continuation`] delivery is rejected with
    /// [`IrError::Overloaded`], while a [`DeliveryClass::Profiling`]
    /// delivery displaces the oldest queued profiling delivery (whose
    /// waiter then observes [`IrError::Overloaded`]). Every shed
    /// increments `shed_total{reason}` on the manager hub.
    ///
    /// # Errors
    ///
    /// [`IrError::Unresolved`] for an unknown session id and
    /// [`IrError::Overloaded`] when the delivery is rejected.
    pub fn submit_classed(
        &self,
        session: SessionId,
        class: DeliveryClass,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send + 'static,
    ) -> Result<Pending, IrError> {
        let entry = self
            .sessions
            .get(session)
            .ok_or_else(|| IrError::Unresolved(format!("unknown session {session}")))?;
        if entry.closed {
            return Err(IrError::Unresolved(format!("session {session} is closed")));
        }
        let (reply, rx) = channel();
        let job = Job::Deliver { slot: entry.slot, class, make_event: Box::new(make_event), reply };
        match self.workers[entry.worker].queue.push_deliver(job) {
            Ok(Ingress::Enqueued) => {}
            Ok(Ingress::ShedOldest) => {
                self.metrics.shed_oldest.inc();
                self.obs.record(TraceEvent::Shed { count: 1 });
            }
            Err(_rejected) => {
                self.metrics.shed_reject.inc();
                self.obs.record(TraceEvent::Shed { count: 1 });
                return Err(IrError::Overloaded(format!(
                    "session {session}: ingress queue full ({} jobs)",
                    self.config.ingress_capacity
                )));
            }
        }
        Ok(Pending { rx })
    }

    /// Two-phase install, step 1: asks the session's worker to validate
    /// `active` as a candidate plan, waiting at most `budget`. The step
    /// serializes behind in-flight deliveries (FIFO per worker), so the
    /// deadline genuinely bounds a busy or wedged endpoint; on timeout
    /// the candidate is counted as `plan_prepares_total{outcome=timeout}`
    /// and the serving plan is untouched.
    ///
    /// # Errors
    ///
    /// [`IrError::Unresolved`] for an unknown/closed session,
    /// [`IrError::Deadline`] on timeout, [`IrError::Continuation`] if the
    /// worker stopped.
    pub fn prepare_plan(
        &self,
        session: SessionId,
        active: &[PseId],
        budget: Duration,
    ) -> Result<PrepareOutcome, IrError> {
        let entry = self.live_entry(session)?;
        let (reply, rx) = channel();
        self.workers[entry.worker].queue.push_control(Job::Plan {
            slot: entry.slot,
            action: PlanAction::Prepare(active.to_vec()),
            reply,
        });
        match rx.recv_timeout(budget) {
            Ok(Ok(PlanResponse::Prepared(outcome))) => Ok(outcome),
            Ok(Ok(PlanResponse::Committed(_))) => {
                Err(IrError::Invalid("mismatched plan response".into()))
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                entry.handler.metrics().note_prepare("timeout");
                Err(IrError::Deadline(format!("plan prepare exceeded its {budget:?} budget")))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(IrError::Continuation("session worker stopped".into()))
            }
        }
    }

    /// Two-phase install, step 2: installs a prepared candidate on the
    /// session's worker and opens its canary window (when the manager
    /// was configured [`SessionConfig::with_guard`]). Returns the new
    /// plan epoch (or the current one for a no-op commit).
    ///
    /// # Errors
    ///
    /// [`IrError::Unresolved`] for an unknown/closed session, validation
    /// or quarantine failures from the worker, [`IrError::Continuation`]
    /// if the worker stopped.
    pub fn commit_plan(&self, session: SessionId, active: &[PseId]) -> Result<u64, IrError> {
        let entry = self.live_entry(session)?;
        let (reply, rx) = channel();
        self.workers[entry.worker].queue.push_control(Job::Plan {
            slot: entry.slot,
            action: PlanAction::Commit(active.to_vec()),
            reply,
        });
        match rx.recv() {
            Ok(Ok(PlanResponse::Committed(epoch))) => Ok(epoch),
            Ok(Ok(PlanResponse::Prepared(_))) => {
                Err(IrError::Invalid("mismatched plan response".into()))
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(IrError::Continuation("session worker stopped".into())),
        }
    }

    fn live_entry(&self, session: SessionId) -> Result<&SessionEntry, IrError> {
        let entry = self
            .sessions
            .get(session)
            .ok_or_else(|| IrError::Unresolved(format!("unknown session {session}")))?;
        if entry.closed {
            return Err(IrError::Unresolved(format!("session {session} is closed")));
        }
        Ok(entry)
    }

    /// Delivers one message through `session`, blocking for the outcome.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit), plus handler runtime errors.
    pub fn deliver(
        &self,
        session: SessionId,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send + 'static,
    ) -> Result<SessionOutcome, IrError> {
        self.submit(session, make_event)?.wait()
    }

    /// The session's analyzed handler (its plan, metrics hub, history).
    /// `None` for unknown *and* closed sessions — a closed copy's state
    /// is gone and must not be inspected or aggregated.
    pub fn handler(&self, session: SessionId) -> Option<&Arc<PartitionedHandler>> {
        self.sessions.get(session).filter(|s| !s.closed).map(|s| &s.handler)
    }

    /// The session's dead-letter ring: quarantined envelopes, oldest
    /// first (`mpart deadletter` renders this). `None` once closed.
    pub fn dead_letters(&self, session: SessionId) -> Option<Vec<DeadLetter>> {
        self.sessions.get(session).filter(|s| !s.closed).map(|s| s.deadletter.snapshot())
    }

    /// Deliveries shed at ingress queues (both policies combined).
    pub fn sheds(&self) -> u64 {
        self.metrics.shed_oldest.get() + self.metrics.shed_reject.get()
    }

    /// Sessions rebuilt from a journal snapshot in this process.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Session slots ever opened, closed ones included — the valid id
    /// range for the per-session accessors. See
    /// [`live_sessions`](Self::live_sessions) for the live count.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions still open (worker slots actually held) — the value of
    /// the `worker_slots_active` gauge.
    pub fn live_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| !s.closed).count()
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared analysis cache.
    pub fn cache(&self) -> &Arc<AnalysisCache> {
        &self.cache
    }

    /// Messages processed successfully across all sessions.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// The manager's observability hub (dispatcher + cache gauges; each
    /// session's handler keeps its own hub).
    pub fn obs(&self) -> &Arc<ObsHub> {
        self.refresh_cache_metrics();
        &self.obs
    }

    /// Re-publishes the cache's hit/miss/eviction counts as gauges.
    pub fn refresh_cache_metrics(&self) {
        self.metrics.cache_hits.set(self.cache.hits() as f64);
        self.metrics.cache_misses.set(self.cache.misses() as f64);
        self.metrics.cache_evictions.set(self.cache.evictions() as f64);
    }

    /// Stops every worker, drains their queues, and returns the total
    /// number of messages processed.
    pub fn shutdown(mut self) -> u64 {
        self.stop_workers();
        self.processed.load(Ordering::Relaxed)
    }

    fn stop_workers(&mut self) {
        for worker in &self.workers {
            worker.queue.push_control(Job::Stop);
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;
    use mpart_ir::types::ElemType;

    const SRC: &str = r#"
        class Job { n: int, buff: ref }

        fn compress(j) {
            out = new Job
            out.n = 16
            b = new byte[16]
            out.buff = b
            return out
        }

        fn ingest(event) {
            ok = event instanceof Job
            if ok == 0 goto skip
            j = (Job) event
            small = call compress(j)
            native archive(small)
            return 1
        skip:
            return 0
        }
    "#;

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("archive", 3, |_, _| Ok(Value::Null));
        b
    }

    fn manager(workers: usize, trigger: TriggerPolicy) -> SessionManager {
        SessionManager::new(SessionConfig::default().with_workers(workers).with_trigger(trigger))
    }

    fn open_n(manager: &mut SessionManager, program: &Arc<Program>, n: usize) -> Vec<SessionId> {
        (0..n)
            .map(|_| {
                manager
                    .open_session(
                        Arc::clone(program),
                        "ingest",
                        Arc::new(DataSizeModel::new()),
                        BuiltinRegistry::new(),
                        receiver_builtins(),
                    )
                    .unwrap()
            })
            .collect()
    }

    fn job_event(program: Arc<Program>, bytes: usize) -> EventFn {
        Box::new(move |ctx| {
            let classes = &program.classes;
            let class = classes.id("Job").unwrap();
            let decl = classes.decl(class);
            let j = ctx.heap.alloc_object(classes, class);
            let b = ctx.heap.alloc_array(ElemType::Byte, bytes);
            ctx.heap.set_field(j, decl.field("n").unwrap(), Value::Int(bytes as i64))?;
            ctx.heap.set_field(j, decl.field("buff").unwrap(), Value::Ref(b))?;
            Ok(vec![Value::Ref(j)])
        })
    }

    #[test]
    fn sessions_shard_across_workers_and_share_the_analysis() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr = manager(3, TriggerPolicy::Never);
        let ids = open_n(&mut mgr, &program, 8);
        assert_eq!(mgr.sessions(), 8);
        assert_eq!(mgr.workers(), 3);
        // One analysis, seven cache hits.
        assert_eq!((mgr.cache().misses(), mgr.cache().hits()), (1, 7));
        for &id in &ids {
            let out = mgr.deliver(id, job_event(Arc::clone(&program), 64)).unwrap();
            assert_eq!(out.ret, Some(Value::Int(1)));
            assert_eq!(out.seq, 1, "each session numbers its own stream");
        }
        // Cache gauges are mirrored on the manager hub.
        let snap = mgr.obs().registry().snapshot();
        let hits = snap
            .metrics
            .iter()
            .find(|m| m.name == "analysis_cache_hits")
            .expect("cache hit gauge registered");
        match hits.value {
            mpart_obs::MetricValue::Gauge(v) => assert!(v > 0.0, "hit gauge populated: {v}"),
            ref other => panic!("expected gauge, got {other:?}"),
        }
        assert_eq!(mgr.shutdown(), 8);
    }

    #[test]
    fn close_session_reclaims_the_slot_and_fences_late_deliveries() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let journal = Arc::new(SessionJournal::in_memory());
        let mut mgr = SessionManager::new(
            SessionConfig::default()
                .with_workers(2)
                .with_trigger(TriggerPolicy::Never)
                .with_journal(Arc::clone(&journal)),
        );
        let ids = open_n(&mut mgr, &program, 4);
        for &id in &ids {
            mgr.deliver(id, job_event(Arc::clone(&program), 32)).unwrap();
        }
        assert_eq!(mgr.live_sessions(), 4);

        // Close one session mid-pool: the final watermark is its seq.
        let watermark = mgr.close_session(ids[1]).unwrap();
        assert_eq!(watermark, 1, "close reports the final ack watermark");
        assert_eq!(mgr.live_sessions(), 3);
        assert_eq!(mgr.sessions(), 4, "slots are positional, never reused");
        assert!(mgr.handler(ids[1]).is_none(), "closed session not inspectable");
        assert!(mgr.dead_letters(ids[1]).is_none());

        // Late deliveries are fenced at both layers.
        let err = mgr.deliver(ids[1], job_event(Arc::clone(&program), 32)).unwrap_err();
        assert!(matches!(err, IrError::Unresolved(_)), "late delivery fenced: {err:?}");
        let err = mgr.close_session(ids[1]).unwrap_err();
        assert!(matches!(err, IrError::Unresolved(_)), "double close rejected: {err:?}");

        // The other sessions' slots are untouched — including a later
        // slot on the same worker as the closed one.
        for &id in &[ids[0], ids[2], ids[3]] {
            let out = mgr.deliver(id, job_event(Arc::clone(&program), 32)).unwrap();
            assert_eq!(out.seq, 2, "session {id} keeps its stream");
        }

        // Close journals a Close record; replay drops the session.
        assert!(!journal.replay().unwrap().contains_key(&(ids[1] as u64)));

        // Evict tears down locally but keeps the journal tail.
        let watermark = mgr.evict_session(ids[2]).unwrap();
        assert_eq!(watermark, 2);
        assert!(journal.replay().unwrap().contains_key(&(ids[2] as u64)));
        assert_eq!(mgr.live_sessions(), 2);

        // Gauges and counters track the live set.
        let snap = mgr.obs().registry().snapshot();
        let value = |name: &str| {
            snap.metrics
                .iter()
                .find(|m| m.identity() == name)
                .map(|m| match m.value {
                    mpart_obs::MetricValue::Counter(v) => v as f64,
                    mpart_obs::MetricValue::Gauge(v) => v,
                    ref other => panic!("unexpected metric value {other:?}"),
                })
                .unwrap_or_else(|| panic!("{name} registered"))
        };
        assert_eq!(value("worker_slots_active"), 2.0);
        assert_eq!(value("sessions_open"), 2.0);
        assert_eq!(value("sessions_closed_total{reason=\"close\"}"), 1.0);
        assert_eq!(value("sessions_closed_total{reason=\"evict\"}"), 1.0);
        let trace = mgr.obs().trace().snapshot();
        assert!(
            trace.iter().any(|r| matches!(
                r.event,
                TraceEvent::SessionClosed { session, watermark: 1 } if session == ids[1] as u64
            )),
            "close recorded a session_closed trace event"
        );
    }

    #[test]
    fn per_session_ordering_is_preserved_under_interleaving() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr = manager(2, TriggerPolicy::Never);
        let ids = open_n(&mut mgr, &program, 4);
        // Interleave submissions round-robin, then wait for everything.
        let mut pending: Vec<(SessionId, u64, Pending)> = Vec::new();
        for round in 1..=5u64 {
            for &id in &ids {
                let p = mgr.submit(id, job_event(Arc::clone(&program), 32)).unwrap();
                pending.push((id, round, p));
            }
        }
        for (id, round, p) in pending {
            let out = p.wait().unwrap();
            assert_eq!(out.seq, round, "session {id} saw its messages in order");
        }
        assert_eq!(mgr.processed(), 20);
    }

    #[test]
    fn sessions_adapt_independently() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr = manager(2, TriggerPolicy::Rate(1));
        let adapting = open_n(&mut mgr, &program, 2);
        // Drive only the first session with big payloads; it should
        // reconfigure away from shipping the raw event while the idle
        // session's plan stays at its initial epoch.
        for _ in 0..12 {
            mgr.deliver(adapting[0], job_event(Arc::clone(&program), 50_000)).unwrap();
        }
        let busy = mgr.handler(adapting[0]).unwrap();
        let idle = mgr.handler(adapting[1]).unwrap();
        assert!(busy.plan().epoch() > 1, "busy session reconfigured");
        assert_eq!(idle.plan().epoch(), 1, "idle session untouched");
    }

    /// A handler whose receiver-side native panics on a magic value —
    /// the injected-fault stand-in for a buggy customization.
    const BOOM_SRC: &str = r#"
        fn boom(event) {
            native sink(event)
            return event
        }
    "#;

    fn boom_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("sink", 1, |_, args| {
            if args.first() == Some(&Value::Int(13)) {
                panic!("injected sink panic");
            }
            Ok(Value::Null)
        });
        b
    }

    #[test]
    fn handler_panic_fails_only_the_envelope_and_degrades() {
        let program = Arc::new(parse_program(BOOM_SRC).unwrap());
        let mut mgr =
            SessionManager::new(SessionConfig::default().with_workers(1).with_degradation(2, 2));
        let id = mgr
            .open_session(
                Arc::clone(&program),
                "boom",
                Arc::new(DataSizeModel::new()),
                BuiltinRegistry::new(),
                boom_builtins(),
            )
            .unwrap();
        for v in 1..=3i64 {
            assert!(mgr.deliver(id, move |_| Ok(vec![Value::Int(v)])).is_ok());
        }
        // Two consecutive panics: each fails only its own envelope and the
        // second crosses the degradation threshold.
        for _ in 0..2 {
            let err = mgr.deliver(id, |_| Ok(vec![Value::Int(13)])).unwrap_err();
            assert!(matches!(err, IrError::HandlerPanic(_)), "caught, not crashed: {err}");
        }
        // The worker survived: the session keeps serving (entry cut).
        for v in 20..=22i64 {
            assert!(mgr.deliver(id, move |_| Ok(vec![Value::Int(v)])).is_ok());
        }
        let handler = mgr.handler(id).unwrap();
        let snap = handler.obs().registry().snapshot();
        assert_eq!(
            snap.get("handler_panics_total", &[("side", "demodulator")]),
            Some(&mpart_obs::MetricValue::Counter(2)),
        );
        assert_eq!(snap.counter_sum("degradations_total"), 1, "hysteresis degraded once");
        assert_eq!(snap.counter_sum("promotions_total"), 1, "successes re-promoted");
        // Both failed envelopes dead-lettered; nothing else did.
        let letters = mgr.dead_letters(id).unwrap();
        assert_eq!(letters.len(), 2);
        assert!(letters.iter().all(|l| l.kind == crate::failure::FailureKind::Panic));
        assert_eq!(letters.iter().map(|l| l.seq).collect::<Vec<_>>(), vec![4, 5]);
        mgr.shutdown();
    }

    #[test]
    fn backpressure_sheds_profiling_oldest_first_and_rejects_continuations() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr =
            SessionManager::new(SessionConfig::default().with_workers(1).with_ingress_capacity(2));
        let ids = open_n(&mut mgr, &program, 1);
        let id = ids[0];
        // Park the worker on a slow delivery so the queue backs up. The
        // started-channel makes the schedule deterministic: the burst below
        // only begins once the worker has popped the slow job.
        let (started_tx, started_rx) = channel::<()>();
        let slow = mgr
            .submit(id, {
                let program = Arc::clone(&program);
                move |ctx| {
                    let _ = started_tx.send(());
                    std::thread::sleep(Duration::from_millis(300));
                    job_event(program, 16)(ctx)
                }
            })
            .unwrap();
        started_rx.recv().unwrap();
        // Fill the queue with two profiling deliveries, then displace them
        // both: oldest-first, freshest samples win.
        let mut profiling = Vec::new();
        for _ in 0..4 {
            profiling.push(
                mgr.submit_classed(id, DeliveryClass::Profiling, {
                    let program = Arc::clone(&program);
                    move |ctx| job_event(program, 16)(ctx)
                })
                .unwrap(),
            );
        }
        // A continuation arriving at the still-full queue is rejected.
        let rejected = mgr.submit(id, {
            let program = Arc::clone(&program);
            move |ctx| job_event(program, 16)(ctx)
        });
        match rejected {
            Err(IrError::Overloaded(_)) => {}
            Err(other) => panic!("expected Overloaded, got {other}"),
            Ok(_) => panic!("expected rejection, continuation was accepted"),
        }
        assert_eq!(mgr.sheds(), 3, "two oldest-drops plus one rejection");
        // The displaced waiters observe the shed; the surviving two drain.
        let outcomes: Vec<_> = profiling.into_iter().map(Pending::wait).collect();
        assert_eq!(outcomes.iter().filter(|o| matches!(o, Err(IrError::Overloaded(_)))).count(), 2);
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 2);
        assert!(slow.wait().is_ok());
        let snap = mgr.obs().registry().snapshot();
        assert_eq!(
            snap.get("shed_total", &[("reason", "oldest_drop")]),
            Some(&mpart_obs::MetricValue::Counter(2)),
        );
        assert_eq!(
            snap.get("shed_total", &[("reason", "queue_full")]),
            Some(&mpart_obs::MetricValue::Counter(1)),
        );
        mgr.shutdown();
    }

    #[test]
    fn wait_deadline_times_out_a_stalled_delivery() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr = SessionManager::new(SessionConfig::default().with_workers(1));
        let ids = open_n(&mut mgr, &program, 1);
        let pending = mgr
            .submit(ids[0], {
                let program = Arc::clone(&program);
                move |ctx| {
                    std::thread::sleep(Duration::from_millis(200));
                    job_event(program, 16)(ctx)
                }
            })
            .unwrap();
        let err = pending.wait_deadline(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, IrError::Deadline(_)), "{err}");
        mgr.shutdown();
    }

    #[test]
    fn journal_recovery_restores_sessions_with_zero_reanalysis() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let journal = Arc::new(SessionJournal::in_memory());
        let config = SessionConfig::default()
            .with_workers(1)
            .with_trigger(TriggerPolicy::Rate(1))
            .with_journal(Arc::clone(&journal));
        let mut mgr = SessionManager::new(config.clone());
        let ids = open_n(&mut mgr, &program, 2);
        for _ in 0..10 {
            mgr.deliver(ids[0], job_event(Arc::clone(&program), 50_000)).unwrap();
        }
        mgr.deliver(ids[1], job_event(Arc::clone(&program), 16)).unwrap();
        let busy_active = mgr.handler(ids[0]).unwrap().plan().active();
        assert!(mgr.handler(ids[0]).unwrap().plan().epoch() > 1, "busy session reconfigured");
        let cache = Arc::clone(mgr.cache());
        mgr.shutdown();

        // "Restart": a fresh manager over the same cache replays the
        // journal. Every restore is a cache hit — zero re-analysis.
        let snapshots = journal.replay().unwrap();
        assert_eq!(snapshots[&0].watermark, 10);
        assert_eq!(snapshots[&0].active, busy_active, "journal captured the live cut");
        let misses_before = cache.misses();
        let hits_before = cache.hits();
        let mut restarted = SessionManager::with_shared_cache(config, cache);
        for snapshot in snapshots.values() {
            restarted
                .restore_session(
                    Arc::clone(&program),
                    "ingest",
                    Arc::new(DataSizeModel::new()),
                    BuiltinRegistry::new(),
                    receiver_builtins(),
                    snapshot,
                )
                .unwrap();
        }
        assert_eq!(restarted.cache().misses(), misses_before, "zero re-analysis on recovery");
        assert_eq!(restarted.cache().hits(), hits_before + 2);
        assert_eq!(restarted.recovered(), 2);
        assert_eq!(
            restarted.handler(0).unwrap().plan().active(),
            busy_active,
            "journaled active set reinstalled"
        );
        // Sequence numbering resumes past the journaled watermark.
        let out = restarted.deliver(0, job_event(Arc::clone(&program), 16)).unwrap();
        assert_eq!(out.seq, 11);
        restarted.shutdown();
    }

    #[test]
    fn a_64_pse_plan_round_trips_through_a_journal_restore() {
        let program = crate::partitioned::tests::pipeline(63);
        let journal = Arc::new(SessionJournal::in_memory());
        let config = SessionConfig::default()
            .with_workers(1)
            .with_trigger(TriggerPolicy::Never)
            .with_journal(Arc::clone(&journal));
        let mut mgr = SessionManager::new(config.clone());
        let model = Arc::new(DataSizeModel::new());
        let (sender, receiver) = (BuiltinRegistry::new(), BuiltinRegistry::new());
        let id = mgr
            .open_session(
                Arc::clone(&program),
                "f",
                model.clone(),
                sender.clone(),
                receiver.clone(),
            )
            .unwrap();
        let plan = mgr.handler(id).unwrap().plan().clone();
        assert_eq!(plan.len(), 64);
        // Bit 63 is the one a truncating encoding would lose.
        plan.set_profiled(63, false);
        let all: Vec<PseId> = (0..64).collect();
        mgr.commit_plan(id, &all).unwrap();
        mgr.shutdown();

        let snapshots = journal.replay().unwrap();
        let snap = &snapshots[&(id as u64)];
        assert_eq!((&snap.active, snap.flags), (&all, u64::MAX >> 1));
        let mut restarted = SessionManager::new(config);
        let id = restarted.restore_session(program, "f", model, sender, receiver, snap).unwrap();
        let view = restarted.handler(id).unwrap().plan().snapshot();
        assert_eq!((view.active(), view.profile), (all, u64::MAX >> 1));
        restarted.shutdown();
    }

    #[test]
    fn unknown_session_and_handler_errors_are_reported() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut mgr = manager(1, TriggerPolicy::Never);
        let ids = open_n(&mut mgr, &program, 1);
        assert!(mgr.deliver(99, |_| Ok(vec![])).is_err());
        // A failing event generator surfaces through the reply channel
        // and counts as a session error, not a dead worker.
        let err = mgr.deliver(ids[0], |_| Err(IrError::Invalid("boom".into())));
        assert!(err.is_err());
        let out = mgr.deliver(ids[0], job_event(Arc::clone(&program), 16)).unwrap();
        assert_eq!(out.ret, Some(Value::Int(1)));
    }
}
