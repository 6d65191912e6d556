//! Virtual-time sessions: a source and one subscriber bridged by the
//! `mpart-simnet` pipeline.
//!
//! A [`SimSession`] runs the real Method Partitioning machinery — actual
//! modulator/demodulator execution, marshalling, profiling, min-cut
//! reconfiguration — while *time* comes from the simulator: interpreter
//! work units divided by host speeds (with perturbation load), and wire
//! bytes priced through `T_s = α + β·S`. Plan updates travel back to the
//! source with a feedback latency, so adaptation lag is modelled
//! faithfully.
//!
//! When the configured [`Link`] carries a
//! [`FaultPlan`](mpart_simnet::FaultPlan), the session becomes a driver of
//! the supervised [`LinkMachine`]: every frame
//! the machine's sender half produces is encoded to checksummed bytes, run
//! through the link's seeded fault injector (drop / duplicate / reorder /
//! corrupt / scheduled partitions), decoded, and fed to the receiver half;
//! acknowledgements are handed back reliably. Sequencing, the unacked
//! window, batching, dedup, retry budgets and quarantine are the
//! machine's; what is this driver's own is the fault injector, the
//! virtual clock, and the [`DegradationController`] — after enough
//! consecutive failures the modulator falls back to the trivial entry cut
//! (ship the raw event, run everything at the receiver), and once the
//! link recovers the optimized plan is re-promoted.

use std::collections::BTreeMap;
use std::sync::Arc;

use mpart::failure::{DeadLetter, DeadLetterRing, FailureConfig};
use mpart::health::DegradationController;
use mpart::modulator::{ModRun, Modulator};
use mpart::profile::TriggerPolicy;
use mpart::reconfig::ReconfigUnit;
use mpart::subscriber::{Subscriber, Timing};
use mpart::{PartitionedHandler, PseId};
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::{Counter, ObsHub, PlanReason, TraceEvent};
use mpart_simnet::{Host, Link, MessageDemand, MessageTiming, Pipeline, SimTime};
use rand::prelude::*;

use crate::envelope::{Frame, ModulatedEvent};
use crate::link::{Encoder, LinkMachine, Received, ReceiverHalf, SenderHalf, Verdict};

/// Hosts, link, and adaptation policy of a simulated session.
#[derive(Debug)]
pub struct SimConfig {
    /// The message source's host.
    pub sender: Host,
    /// The connecting link.
    pub link: Link,
    /// The subscriber's host.
    pub receiver: Host,
    /// Feedback trigger policy ([`TriggerPolicy::Never`] freezes the plan).
    pub trigger: TriggerPolicy,
    /// One-way latency for feedback/plan-update control messages
    /// (typically the link's α).
    pub feedback_latency: SimTime,
    /// CPU work units charged per wire byte on *each* side for
    /// marshalling/unmarshalling — the serialization costs the paper's
    /// Table 1 quantifies. Zero disables the accounting.
    pub serialize_work_per_byte: f64,
    /// Profile only every Nth message ("if profiling is expensive, such
    /// costs can be reduced by periodic sampling, at the expense of having
    /// less timely statistics", §2.5). `1` profiles every message.
    pub profile_sample_period: u64,
    /// EWMA smoothing factor of the profiling statistics.
    pub ewma_alpha: f64,
    /// Weight PSE costs by traversal frequency (§2.3 path-sensitive
    /// optimization).
    pub frequency_weighted: bool,
    /// Maximum messages in flight before the sender blocks (bounded
    /// socket/queue buffering). Without a bound, a congested receiver
    /// lets the sender race arbitrarily far ahead and plan updates stall
    /// behind the data queue.
    pub max_in_flight: usize,
    /// Probability that a plan-update control message is lost in transit
    /// (failure injection; seeded, deterministic). Zero disables losses.
    pub control_loss: f64,
    /// Seed for the control-loss coin flips.
    pub control_loss_seed: u64,
    /// Consecutive delivery failures before the session degrades to the
    /// trivial entry cut (only meaningful when the link carries a fault
    /// plan).
    pub degrade_after: u32,
    /// Consecutive delivery successes before the optimized plan is
    /// re-promoted.
    pub promote_after: u32,
    /// Maximum continuation envelopes coalesced into one wire frame
    /// (supervised wire only). `1` disables batching: framing and fault
    /// decisions are byte-for-byte identical to the unbatched wire.
    pub batch_max: usize,
    /// Virtual-time flush deadline for a partially-filled batch: a pending
    /// envelope never waits longer than this for the batch to fill.
    pub batch_deadline: SimTime,
    /// Failure-domain tuning (supervised wire only): how many failures —
    /// injected panic, poison, or demodulator error — an envelope may
    /// accumulate before it is quarantined to the dead-letter ring, and
    /// how many letters that ring retains.
    pub failure: FailureConfig,
}

impl SimConfig {
    /// A config with feedback latency equal to the link's α.
    pub fn new(sender: Host, link: Link, receiver: Host, trigger: TriggerPolicy) -> Self {
        let feedback_latency = link.alpha;
        SimConfig {
            sender,
            link,
            receiver,
            trigger,
            feedback_latency,
            serialize_work_per_byte: 0.0,
            profile_sample_period: 1,
            ewma_alpha: 0.5,
            frequency_weighted: false,
            max_in_flight: 4,
            control_loss: 0.0,
            control_loss_seed: 0,
            degrade_after: 3,
            promote_after: 3,
            batch_max: 1,
            batch_deadline: SimTime::from_millis(0),
            failure: FailureConfig::default(),
        }
    }

    /// Coalesces up to `max` continuation envelopes per wire frame
    /// (supervised wire only), flushing a partial batch once `deadline`
    /// of virtual time has passed since its oldest pending envelope. One
    /// frame means one header, one checksum, and one fault decision for
    /// the whole batch; a lost batch loses all of its events together and
    /// they stay in the unacked window, so retransmission, ordering, and
    /// dedup semantics are unchanged.
    pub fn with_batching(mut self, max: usize, deadline: SimTime) -> Self {
        self.batch_max = max.max(1);
        self.batch_deadline = deadline;
        self
    }

    /// Sets the per-byte marshalling work charged to each side's CPU.
    pub fn with_serialize_cost(mut self, work_per_byte: f64) -> Self {
        self.serialize_work_per_byte = work_per_byte;
        self
    }

    /// Profiles only every `period`-th message (periodic sampling).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_profile_sampling(mut self, period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        self.profile_sample_period = period;
        self
    }

    /// Sets the EWMA smoothing factor for the profiling statistics.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        self.ewma_alpha = alpha;
        self
    }

    /// Enables frequency-weighted (expected-cost) plan selection.
    pub fn with_frequency_weighting(mut self, on: bool) -> Self {
        self.frequency_weighted = on;
        self
    }

    /// Sets the in-flight message bound (sender-side backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_max_in_flight(mut self, bound: usize) -> Self {
        assert!(bound > 0, "in-flight bound must be positive");
        self.max_in_flight = bound;
        self
    }

    /// Drops each plan-update control message with probability `loss`
    /// (deterministic under `seed`) — failure injection for the control
    /// channel.
    pub fn with_control_loss(mut self, loss: f64, seed: u64) -> Self {
        self.control_loss = loss.clamp(0.0, 1.0);
        self.control_loss_seed = seed;
        self
    }

    /// Sets the degradation hysteresis: fall back to the entry cut after
    /// `degrade_after` consecutive failures, re-promote after
    /// `promote_after` consecutive successes.
    pub fn with_degradation(mut self, degrade_after: u32, promote_after: u32) -> Self {
        self.degrade_after = degrade_after.max(1);
        self.promote_after = promote_after.max(1);
        self
    }

    /// Sets the failure-domain tuning (retry budget before quarantine,
    /// dead-letter ring capacity).
    pub fn with_failure(mut self, failure: FailureConfig) -> Self {
        self.failure = failure;
        self
    }
}

/// The subscriber end of the session in virtual time: applies envelopes
/// — on either wire — prices them through the pipeline model, and owns
/// the feedback channel that carries plan proposals back to the source.
struct Endpoint {
    subscriber: Subscriber,
    ctx: ExecCtx,
    pipeline: Pipeline,
    feedback_latency: SimTime,
    serialize_work_per_byte: f64,
    control_loss: f64,
    control_rng: StdRng,
    plan_updates_dropped: Counter,
    plan_installs: u64,
    reports: Vec<SimReport>,
}

impl Endpoint {
    /// Applies one envelope generated at `now`, charging `mod_work` to the
    /// source. While `pinned` (degraded to the entry cut) optimized plans
    /// are only re-promoted by the recovery streak, not by feedback. The
    /// inner `Err` is the demodulator's: nothing was applied.
    fn apply(
        &mut self,
        event: ModulatedEvent,
        mod_work: u64,
        now: SimTime,
        pinned: bool,
    ) -> Result<Result<SimReport, IrError>, IrError> {
        let wire_bytes = event.wire_size();
        // Marshalling costs CPU on both sides, proportional to the wire
        // size (Table 1's serialization costs).
        let ser_work = (self.serialize_work_per_byte * wire_bytes as f64).round() as u64;
        let pipeline = &mut self.pipeline;
        let mut timeline = None;
        let applied =
            self.subscriber.apply(&mut self.ctx, &event.continuation, event.samples, |demod| {
                let mod_work = mod_work + ser_work;
                let demod_work = demod.demod_work + ser_work + demod.profile_work;
                let demand = MessageDemand { mod_work, bytes: wire_bytes as u64, demod_work };
                let timing = *timeline.insert(pipeline.submit(now, demand));
                Timing {
                    mod_work,
                    t_mod: Some((timing.mod_end - timing.mod_start).as_secs_f64()),
                    demod_work,
                    t_demod: Some((timing.demod_end - timing.demod_start).as_secs_f64()),
                }
            });
        let (applied, timing) = match (applied, timeline) {
            (Ok(applied), Some(timing)) => (applied, timing),
            (Ok(_), None) => {
                return Err(IrError::Invalid("applied envelope was not priced".into()))
            }
            (Err(e), _) => return Ok(Err(e)),
        };
        let mut reconfigured = false;
        match applied.proposal? {
            // No control message is sent while pinned, and one lost in
            // transit leaves the stale plan active until a later update
            // gets through.
            Some(_) if pinned => {}
            Some(_)
                if self.control_loss > 0.0 && self.control_rng.random_bool(self.control_loss) =>
            {
                self.plan_updates_dropped.inc();
            }
            // The new plan reaches the source after the feedback latency.
            Some(proposal) => {
                let due = timing.demod_end + self.feedback_latency;
                self.subscriber.defer(proposal, due.as_nanos());
                reconfigured = true;
            }
            None => {}
        }
        let report = SimReport {
            seq: event.seq,
            split_pse: event.continuation.pse,
            wire_bytes,
            timing,
            ret: applied.demod.ret,
            reconfigured,
            delivered: true,
        };
        self.reports.push(report.clone());
        Ok(Ok(report))
    }

    /// Installs every proposal whose feedback latency has elapsed by
    /// `until` (recorded in the plan history so in-flight continuations
    /// from superseded generations keep demodulating).
    fn install_landed(&mut self, until: SimTime) {
        self.plan_installs += self.subscriber.install_due(until.as_nanos(), PlanReason::Reconfig);
    }
}

/// Per-message outcome of a simulated delivery.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Message sequence number.
    pub seq: u64,
    /// The PSE the message split at.
    pub split_pse: PseId,
    /// Wire bytes of the modulated event.
    pub wire_bytes: usize,
    /// Virtual-time timeline.
    pub timing: MessageTiming,
    /// Handler return value.
    pub ret: Option<Value>,
    /// Whether a plan update was scheduled after this message.
    pub reconfigured: bool,
    /// Whether the message has reached the subscriber. Always `true` on a
    /// fault-free link; on a supervised wire, `false` means the frame is
    /// still in the unacked window awaiting retransmission.
    pub delivered: bool,
}

/// A simulated source→subscriber session.
pub struct SimSession {
    program: Arc<Program>,
    handler: Arc<PartitionedHandler>,
    modulator: Modulator,
    sender_builtins: BuiltinRegistry,
    end: Endpoint,
    profile_sample_period: u64,
    max_in_flight: usize,
    /// Messages generated so far.
    seq: u64,
    /// Degradation ladder (present when the link carries a fault plan).
    degradation: Option<DegradationController>,
    /// The supervised link; idle on a fault-free link.
    link: LinkMachine,
    encoder: Encoder,
    received: Received,
    /// Envelope sequence numbers whose demodulation deterministically
    /// panics (from the fault plan's poison list).
    poison_seqs: Vec<u64>,
    /// Remaining drain rounds to skip before retrying after a stall
    /// (deadline-timeout backoff).
    stall_cooldown: u64,
    /// Next backoff length in rounds; doubles per stalled pump, capped,
    /// and resets once a pump completes without stalls.
    stall_backoff: u64,
    /// Per-seq handler results, for oracle comparison.
    applied_results: BTreeMap<u64, Option<Value>>,
    // The fault injector's work, on the handler's metrics registry next to
    // the link machine's and the partitioning layer's instruments.
    frames_lost: Counter,
    frames_corrupted: Counter,
    shed: Counter,
    deadline_timeouts: Counter,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("handler", &self.handler.func_name())
            .field("messages", &self.seq)
            .field("plan", &self.handler.plan().active())
            .finish()
    }
}

impl SimSession {
    /// Creates an adaptive session: the subscriber submits `handler_fn`
    /// under `model`; the initial plan is the statically-selected cut and
    /// the Reconfiguration Unit adapts it per `config.trigger`.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn adaptive(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        config: SimConfig,
    ) -> Result<Self, IrError> {
        let handler = PartitionedHandler::analyze(Arc::clone(&program), handler_fn, model)?;
        Self::adaptive_with_handler(program, handler, sender_builtins, receiver_builtins, config)
    }

    /// Creates an adaptive session over an already-built handler — the
    /// multi-session entry point: callers that shard many sessions over a
    /// shared `AnalysisCache` (see `SessionManager`) construct handlers
    /// via `PartitionedHandler::analyze_cached` and hand them in here, so
    /// the static analysis is paid once while plans, epochs, and profiling
    /// feedback remain per-session.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn adaptive_with_handler(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        mut config: SimConfig,
    ) -> Result<Self, IrError> {
        let kind = handler.model().kind();
        let reconfig = ReconfigUnit::new(Arc::clone(handler.analysis()), kind, config.trigger)
            .with_serialize_cost(config.serialize_work_per_byte)
            .with_alpha(config.ewma_alpha)
            .with_frequency_weighting(config.frequency_weighted)
            .with_obs(Arc::clone(handler.obs()))
            // Watch the shared plan so installs this unit did not produce
            // (degradation, re-promotion) reset its feedback window.
            .with_plan_watch(handler.plan().clone());
        let registry = handler.obs().registry();
        let plan_updates_dropped = registry.counter("plan_updates_dropped_total", &[]);
        let poison_seqs =
            config.link.fault_mut().map(|inj| inj.plan().poison_seqs.clone()).unwrap_or_default();
        let degradation = config.link.has_faults().then(|| {
            // Long outages keep frames in flight across many plan
            // generations; widen the demodulator's plan history so
            // retransmitted continuations stay admissible.
            handler.plan().set_retention(64);
            DegradationController::new(
                Arc::clone(&handler),
                config.degrade_after,
                config.promote_after,
            )
        });
        // The sim never asks the sender half for a stall verdict: its
        // retransmission cadence is the drain loop's.
        let mut sender = SenderHalf::new(registry, u64::MAX);
        sender.set_batching(config.batch_max, config.batch_deadline.as_nanos());
        let receiver = ReceiverHalf::new(
            Arc::clone(handler.obs()),
            config.failure.retry_budget,
            Arc::new(DeadLetterRing::new(config.failure.deadletter_capacity)),
        );
        let ctx = ExecCtx::without_digests(&program, receiver_builtins);
        Ok(SimSession {
            modulator: handler.modulator(),
            encoder: Encoder::new(registry),
            end: Endpoint {
                subscriber: Subscriber::new(Arc::clone(&handler), reconfig),
                ctx,
                pipeline: Pipeline::new(config.sender, config.link, config.receiver),
                feedback_latency: config.feedback_latency,
                serialize_work_per_byte: config.serialize_work_per_byte,
                control_loss: config.control_loss,
                control_rng: StdRng::seed_from_u64(config.control_loss_seed),
                plan_updates_dropped,
                plan_installs: 0,
                reports: Vec::new(),
            },
            sender_builtins,
            profile_sample_period: config.profile_sample_period.max(1),
            max_in_flight: config.max_in_flight.max(1),
            seq: 0,
            degradation,
            link: LinkMachine { sender, receiver },
            received: Received::default(),
            poison_seqs,
            stall_cooldown: 0,
            stall_backoff: 1,
            applied_results: BTreeMap::new(),
            frames_lost: registry.counter("frames_lost_total", &[]),
            frames_corrupted: registry.counter("frames_corrupted_total", &[]),
            shed: registry.counter("shed_total", &[("reason", "overload")]),
            deadline_timeouts: registry.counter("deadline_timeouts_total", &[]),
            handler,
            program,
        })
    }

    /// Creates a fixed-plan session — the paper's manually-coded baseline
    /// versions (Consumer/Producer/Divided, `Image<Display`, ...): the
    /// given active set is installed once and never changes.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures and rejects a non-cut `active` set.
    pub fn fixed(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        active: &[PseId],
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        mut config: SimConfig,
    ) -> Result<Self, IrError> {
        config.trigger = TriggerPolicy::Never;
        // Baselines neither profile nor sample; a sampling period would
        // otherwise re-enable the profiling flags per message.
        config.profile_sample_period = 1;
        let session =
            Self::adaptive(program, handler_fn, model, sender_builtins, receiver_builtins, config)?;
        session.handler.validate_candidate(active)?;
        session.handler.plan().install(active);
        // Baselines do not profile either.
        for pse in 0..session.handler.analysis().pses().len() {
            session.handler.plan().set_profiled(pse, false);
        }
        Ok(session)
    }

    /// The analyzed handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// The subscriber-side execution context.
    pub fn receiver_ctx(&self) -> &ExecCtx {
        &self.end.ctx
    }

    /// Number of plan installations applied at the source so far.
    pub fn plan_installs(&self) -> u64 {
        self.end.plan_installs
    }

    /// Number of plan updates lost to control-channel failure injection.
    pub fn plans_dropped(&self) -> u64 {
        self.end.plan_updates_dropped.get()
    }

    /// Whether the session is currently degraded to the trivial entry cut.
    pub fn is_degraded(&self) -> bool {
        self.degradation.as_ref().is_some_and(|c| c.is_degraded())
    }

    /// Healthy → Degraded transitions so far (supervised wire only).
    pub fn degradations(&self) -> u64 {
        self.degradation.as_ref().map_or(0, |c| c.degradations())
    }

    /// Degraded → Healthy re-promotions so far (supervised wire only).
    pub fn promotions(&self) -> u64 {
        self.degradation.as_ref().map_or(0, |c| c.promotions())
    }

    /// Envelopes put on the wire again after their first transmission
    /// (supervised wire only).
    pub fn retransmissions(&self) -> u64 {
        self.link.sender.retransmissions()
    }

    /// Frames lost to drops or partitions (supervised wire only).
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost.get()
    }

    /// Frames damaged in transit and rejected by the checksum.
    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted.get()
    }

    /// Duplicate arrivals suppressed at the subscriber.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.link.receiver.duplicates_suppressed()
    }

    /// Multi-event batch frames that crossed the wire intact (supervised
    /// wire only; singleton flushes encode as plain event frames and do
    /// not count).
    pub fn envelope_batches(&self) -> u64 {
        self.link.receiver.batches()
    }

    /// Events that crossed the wire inside multi-event batch frames.
    pub fn batched_events(&self) -> u64 {
        self.link.receiver.batched_events()
    }

    /// Batch members acknowledged at their member boundary — i.e.
    /// standalone ack frames the batch-ack piggyback saved.
    pub fn batch_member_acks(&self) -> u64 {
        self.link.receiver.batch_member_acks()
    }

    /// Frames still awaiting acknowledgement.
    pub fn unacked(&self) -> usize {
        self.link.sender.in_flight()
    }

    /// Demodulator panics caught by the isolation boundary (injected or
    /// poison; supervised wire only).
    pub fn handler_panics(&self) -> u64 {
        self.link.receiver.handler_panics()
    }

    /// Envelopes quarantined to the dead-letter ring after exhausting
    /// their retry budget.
    pub fn quarantined(&self) -> u64 {
        self.link.receiver.deadletter().quarantined()
    }

    /// The quarantined envelopes currently retained, oldest first.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.link.receiver.deadletter().snapshot()
    }

    /// Frames shed at the receiver's ingress under injected overload
    /// (never acked; they retransmit).
    pub fn sheds(&self) -> u64 {
        self.shed.get()
    }

    /// Envelope deadline budgets expired on injected demodulator stalls;
    /// each timeout backs the retry cadence off exponentially.
    pub fn deadline_timeouts(&self) -> u64 {
        self.deadline_timeouts.get()
    }

    /// Per-seq handler results applied at the subscriber, in seq order
    /// (supervised wire only; the oracle-comparison surface).
    pub fn applied_results(&self) -> &BTreeMap<u64, Option<Value>> {
        &self.applied_results
    }

    /// The Reconfiguration Unit.
    pub fn reconfig(&self) -> &ReconfigUnit {
        self.end.subscriber.reconfig()
    }

    /// The session's observability hub (the handler's shared metrics
    /// registry and trace ring — transport counters register there too).
    pub fn obs(&self) -> &Arc<ObsHub> {
        self.handler.obs()
    }

    /// Starts one delivery: the source emits as soon as its CPU is free
    /// and the previous message has drained into the link (a sender
    /// blocks on the socket send) — and no earlier than `not_before`;
    /// plan updates that have reached it by then take effect; then the
    /// modulator runs on the event built inside a fresh source-side
    /// context.
    fn generate(
        &mut self,
        not_before: SimTime,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(SimTime, ModRun), IrError> {
        let pipeline = &self.end.pipeline;
        let gen_time = pipeline.sender.busy_until().max(pipeline.link.busy_until()).max(not_before);
        self.end.install_landed(gen_time);
        let mut sender_ctx = ExecCtx::without_digests(&self.program, self.sender_builtins.clone());
        let args = make_event(&mut sender_ctx)?;
        Ok((gen_time, self.modulator.handle(&mut sender_ctx, args)?))
    }

    /// Delivers one message built by `make_event` inside a fresh
    /// source-side context; returns the full report.
    ///
    /// # Errors
    ///
    /// Propagates handler runtime errors.
    pub fn deliver(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<SimReport, IrError> {
        self.seq += 1;
        if self.end.pipeline.link.has_faults() {
            return self.deliver_supervised(make_event);
        }
        // Periodic profiling sampling: flip all profiling flags for
        // non-sampled messages (fixed baselines cleared them already and
        // are unaffected because their trigger never fires).
        if self.profile_sample_period > 1 {
            let profiled = self.seq % self.profile_sample_period == 1;
            for pse in 0..self.handler.analysis().pses().len() {
                self.handler.plan().set_profiled(pse, profiled);
            }
        }
        // Closed loop: fewer than `max_in_flight` messages may be
        // unprocessed (bounded buffering / backpressure).
        let reports = &self.end.reports;
        let window_end = reports
            .len()
            .checked_sub(self.max_in_flight)
            .map_or(SimTime::from_nanos(0), |oldest| reports[oldest].timing.demod_end);
        let (gen_time, run) = self.generate(window_end, make_event)?;
        let event =
            ModulatedEvent { seq: self.seq, continuation: run.message, samples: run.samples };
        self.end.apply(event, run.mod_work + run.profile_work, gen_time, false)?
    }

    /// Supervised-wire delivery: the envelope enters the link machine's
    /// window and crosses — now, or once its batch flushes — as
    /// checksummed frame bytes through the link's fault injector.
    fn deliver_supervised(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<SimReport, IrError> {
        let (gen_time, run) = self.generate(SimTime::from_nanos(0), make_event)?;
        let split_pse = run.message.pse;
        let now = gen_time.as_nanos();
        let parked = self.link.sender.send(run.message, run.samples, 0, now);
        let (seq, wire_bytes) = (parked.seq, parked.wire_size());

        // Coalescing: the machine holds the envelope until the batch
        // fills or its oldest envelope has waited out the flush deadline.
        let round = self.end.reports.len();
        if self.link.sender.flush_due(now) {
            self.pump(gen_time)?;
        }
        if let Some(report) = self.end.reports[round..].iter().find(|r| r.seq == seq) {
            return Ok(report.clone());
        }
        // The frame did not make it across this round; it stays in the
        // unacked window for later pumps (or awaits the batch flush).
        let stalled = MessageTiming {
            generated: gen_time,
            mod_start: gen_time,
            mod_end: gen_time,
            arrival: gen_time,
            demod_start: gen_time,
            demod_end: gen_time,
        };
        Ok(SimReport {
            seq,
            split_pse,
            wire_bytes,
            timing: stalled,
            ret: None,
            reconfigured: false,
            delivered: false,
        })
    }

    /// Feeds the degradation hysteresis; a transition installs a plan.
    fn note_health(&mut self, failures: u32, success: bool) {
        let Some(ctl) = self.degradation.as_mut() else {
            return;
        };
        let transitions = (0..failures).filter(|_| ctl.record_failure().is_some()).count()
            + usize::from(success && ctl.record_success().is_some());
        self.end.plan_installs += transitions as u64;
    }

    /// One transmission round: the machine re-frames its whole unacked
    /// window, every frame gets a fault decision, survivors cross the
    /// wire (possibly damaged, duplicated, or reordered), are decoded and
    /// fed to the machine's receiver half in arrival order, and every
    /// settled envelope is acknowledged back reliably. The frame is the
    /// unit of loss — a dropped batch keeps all its envelopes unacked, so
    /// they retransmit together. Delivery failures and successes feed the
    /// degradation controller once per frame.
    fn pump(&mut self, now: SimTime) -> Result<(), IrError> {
        // Phase 1: decide each frame's fate at the link. Each surviving
        // payload carries its injected-panic flag into the receiver phase;
        // stalls and overloads resolve here (the frame never reaches the
        // receiver and stays unacked).
        let Some(injector) = self.end.pipeline.link.fault_mut() else {
            return Err(IrError::Invalid("the supervised wire needs a fault plan".into()));
        };
        let mut wire: Vec<(Vec<u8>, bool)> = Vec::new();
        let mut failures = 0u32;
        let mut stalled_this_pump = false;
        for frame in self.link.sender.replay(now.as_nanos()) {
            // The simulated link needs owned contiguous bytes (fault
            // injection corrupts in place); the flatten is deterministic,
            // so fault decisions and corruption offsets are those of a
            // single-buffer encoder.
            let bytes = self.encoder.encode(&frame)?.to_vec();
            let decision = injector.decide();
            // A frame that is lost, stalls the demodulator past its
            // deadline budget (the retry cadence then backs off
            // exponentially), or is shed at the receiver's ingress under
            // overload never reaches the receiver: it stays unacked and
            // retransmits.
            let withheld = if !decision.delivers() {
                Some(&self.frames_lost)
            } else if decision.stalled {
                stalled_this_pump = true;
                Some(&self.deadline_timeouts)
            } else if decision.overloaded {
                self.handler.obs().record(TraceEvent::Shed { count: 1 });
                Some(&self.shed)
            } else {
                None
            };
            if let Some(counter) = withheld {
                counter.inc();
                failures += 1;
                continue;
            }
            // A duplicate is a clean second copy of the same bytes; the
            // panic injection applies only to the first arrival's
            // demodulation attempt.
            let duplicate = decision.duplicated.then(|| bytes.clone());
            let mut payload = bytes;
            if decision.corrupted {
                injector.corrupt_in_place(&mut payload);
                self.frames_corrupted.inc();
            }
            wire.push((payload, decision.handler_panic));
            wire.extend(duplicate.map(|copy| (copy, false)));
            if decision.reordered && wire.len() >= 2 {
                let n = wire.len();
                wire.swap(n - 1, n - 2);
            }
        }
        if stalled_this_pump {
            self.stall_cooldown = self.stall_backoff;
            self.stall_backoff = (self.stall_backoff * 2).min(64);
        } else {
            self.stall_backoff = 1;
        }
        self.note_health(failures, false);

        // Phase 2: the receiver half, frame by frame.
        for (payload, inject_panic) in wire {
            let Ok((frame, _)) = Frame::decode_bytes(&payload) else {
                // The checksum caught in-transit damage; to the sender
                // this is just a missing ack.
                self.note_health(1, false);
                continue;
            };
            let pinned = self.is_degraded();
            let (end, poison, results) =
                (&mut self.end, &self.poison_seqs, &mut self.applied_results);
            let mut apply = |event: ModulatedEvent, _t_mod_nanos: u64| {
                let seq = event.seq;
                if inject_panic || poison.contains(&seq) {
                    let injected = format!("injected demodulator panic (seq {seq})");
                    return Ok(Verdict::Failed(IrError::HandlerPanic(injected)));
                }
                let mod_work = event.continuation.mod_work;
                Ok(match end.apply(event, mod_work, now, pinned)? {
                    Ok(report) => {
                        results.insert(seq, report.ret);
                        Verdict::Applied { plan: None }
                    }
                    Err(e) => Verdict::Failed(e),
                })
            };
            self.link.receiver.on_frame(frame, &mut apply, &mut self.received)?;
            // Acknowledgements are handed back reliably, envelope by
            // envelope, so a gap below never holds a settled one hostage.
            for seq in self.received.settled.drain(..) {
                self.link.sender.settle(seq);
            }
            // Hysteresis feedback, once per frame: an intact frame whose
            // events all applied counts one success toward re-promotion;
            // each failed envelope counts one failure toward degradation.
            let failed = self.received.failed;
            self.note_health(failed, failed == 0);
        }
        Ok(())
    }

    /// Retries the unacked window for up to `max_rounds` transmission
    /// rounds (draining a storm's tail after the last publish); returns
    /// the number of frames still undelivered.
    ///
    /// # Errors
    ///
    /// Propagates handler runtime errors.
    pub fn drain(&mut self, max_rounds: usize) -> Result<usize, IrError> {
        for _ in 0..max_rounds {
            if self.link.sender.in_flight() == 0 {
                break;
            }
            // Deadline-timeout backoff: after a stalled pump, retry rounds
            // are skipped exponentially (1, 2, 4, ... capped) before the
            // window is retried — deterministic, no RNG involved.
            if self.stall_cooldown > 0 {
                self.stall_cooldown -= 1;
                continue;
            }
            let pipeline = &self.end.pipeline;
            let now = pipeline.sender.busy_until().max(pipeline.link.busy_until());
            self.end.install_landed(now);
            self.pump(now)?;
        }
        Ok(self.link.sender.in_flight())
    }

    /// Delivers `n` messages from the same generator.
    ///
    /// # Errors
    ///
    /// Stops at the first failing delivery.
    pub fn run(
        &mut self,
        n: usize,
        mut make_event: impl FnMut(u64, &mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(), IrError> {
        for _ in 0..n {
            let seq = self.seq;
            self.deliver(|ctx| make_event(seq, ctx))?;
        }
        Ok(())
    }

    /// All per-message reports.
    pub fn reports(&self) -> &[SimReport] {
        &self.end.reports
    }

    /// Average per-message makespan in milliseconds (the paper's "average
    /// message processing time").
    pub fn avg_processing_ms(&self) -> f64 {
        self.end.pipeline.avg_processing_time().map(|t| t.as_millis_f64()).unwrap_or(0.0)
    }

    /// Delivered frames per second.
    pub fn fps(&self) -> f64 {
        self.end.pipeline.fps().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart::failure::FailureKind;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;
    use mpart_ir::types::ElemType;
    use mpart_simnet::FaultPlan;

    const SRC: &str = r#"
        class Frame { pixels: int, buff: ref }

        fn shrink(f) {
            out = new Frame
            out.pixels = 256
            b = new byte[256]
            out.buff = b
            return out
        }

        fn view(event) {
            z = event instanceof Frame
            if z == 0 goto skip
            f = (Frame) event
            small = call shrink(f)
            native paint(small)
            return 1
        skip:
            return 0
        }
    "#;

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("paint", 5, |_, _| Ok(Value::Null));
        b
    }

    fn frame_builder(
        program: &Arc<Program>,
        pixels: usize,
    ) -> impl FnMut(u64, &mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
        let classes = &program.classes;
        move |_, ctx| {
            let class = classes.id("Frame").unwrap();
            let decl = classes.decl(class);
            let f = ctx.heap.alloc_object(classes, class);
            let b = ctx.heap.alloc_array(ElemType::Byte, pixels);
            ctx.heap.set_field(f, decl.field("pixels").unwrap(), Value::Int(pixels as i64))?;
            ctx.heap.set_field(f, decl.field("buff").unwrap(), Value::Ref(b))?;
            Ok(vec![Value::Ref(f)])
        }
    }

    fn config(trigger: TriggerPolicy) -> SimConfig {
        SimConfig::new(
            Host::new("sender", 1_000_000.0),
            Link::new("lan", SimTime::from_millis(1), 1_000_000.0),
            Host::new("receiver", 1_000_000.0),
            trigger,
        )
    }

    #[test]
    fn adaptive_session_converges_to_small_payload() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(TriggerPolicy::Rate(1)),
        )
        .unwrap();
        // Big frames: 100_000B raw vs 256B shrunk. Adaptation must move
        // the split past the shrink.
        session.run(20, frame_builder(&program, 100_000)).unwrap();
        let last = session.reports().last().unwrap();
        assert!(
            last.wire_bytes < 1000,
            "after adaptation the wire carries the shrunk frame: {}",
            last.wire_bytes
        );
        assert!(session.plan_installs() >= 1);
    }

    #[test]
    fn fixed_session_never_adapts() {
        let program = Arc::new(parse_program(SRC).unwrap());
        // Force "ship raw" (entry split).
        let probe = PartitionedHandler::analyze(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let entry = probe.entry_pse().unwrap();
        let skip: Vec<usize> = vec![entry];
        let mut session = SimSession::fixed(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            &skip,
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(TriggerPolicy::Rate(1)),
        )
        .unwrap();
        session.run(10, frame_builder(&program, 100_000)).unwrap();
        assert_eq!(session.plan_installs(), 0);
        let last = session.reports().last().unwrap();
        assert!(last.wire_bytes > 100_000, "raw frames stay raw");
    }

    #[test]
    fn adaptive_beats_bad_fixed_plan_on_fps() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let probe = PartitionedHandler::analyze(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let entry = probe.entry_pse().unwrap();

        let mut fixed = SimSession::fixed(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            &[entry],
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(TriggerPolicy::Never),
        )
        .unwrap();
        fixed.run(30, frame_builder(&program, 100_000)).unwrap();

        let mut adaptive = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(TriggerPolicy::Rate(1)),
        )
        .unwrap();
        adaptive.run(30, frame_builder(&program, 100_000)).unwrap();

        assert!(
            adaptive.fps() > fixed.fps() * 2.0,
            "adaptive {} fps vs fixed {} fps",
            adaptive.fps(),
            fixed.fps()
        );
    }

    #[test]
    fn reports_and_metrics_populated() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(TriggerPolicy::Rate(4)),
        )
        .unwrap();
        session.run(8, frame_builder(&program, 1024)).unwrap();
        assert_eq!(session.reports().len(), 8);
        assert!(session.avg_processing_ms() > 0.0);
        assert!(session.fps() > 0.0);
        // Sequence numbers are monotone.
        for (i, r) in session.reports().iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }

    fn supervised_config(trigger: TriggerPolicy, plan: FaultPlan) -> SimConfig {
        SimConfig::new(
            Host::new("sender", 1_000_000.0),
            Link::new("lan", SimTime::from_millis(1), 1_000_000.0).with_fault_plan(plan),
            Host::new("receiver", 1_000_000.0),
            trigger,
        )
    }

    #[test]
    fn batched_wire_coalesces_and_preserves_order() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(11))
                .with_batching(4, SimTime::from_millis(10_000)),
        )
        .unwrap();
        session.run(8, frame_builder(&program, 1024)).unwrap();
        // Two full batches of four; nothing left pending on a clean link,
        // and nothing was ever put on the wire twice.
        assert_eq!(session.unacked(), 0);
        assert_eq!(session.retransmissions(), 0);
        assert_eq!(session.envelope_batches(), 2);
        assert_eq!(session.batched_events(), 8);
        // Every batch member was acked at its member boundary, not with
        // a standalone frame per event.
        assert_eq!(session.batch_member_acks(), 8);
        // Envelopes demodulated in frame order, every one exactly once.
        let seqs: Vec<u64> = session.reports().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<_>>());
        assert_eq!(session.applied_results().len(), 8);
        let snap = session.obs().registry().snapshot();
        assert_eq!(snap.counter_sum("envelope_batches_total"), 2);
        assert_eq!(snap.counter_sum("batched_events_total"), 8);
        assert_eq!(snap.counter_sum("batch_member_acks_total"), 8);
    }

    #[test]
    fn zero_deadline_disables_coalescing() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(11))
                .with_batching(8, SimTime::from_millis(0)),
        )
        .unwrap();
        session.run(6, frame_builder(&program, 1024)).unwrap();
        // Every envelope's deadline expires on arrival, so each flushes as
        // a plain singleton frame.
        assert_eq!(session.envelope_batches(), 0);
        assert_eq!(session.applied_results().len(), 6);
    }

    #[test]
    fn mid_batch_fault_retransmits_whole_frames_without_loss_or_duplication() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(3).with_drop(0.35))
                .with_batching(3, SimTime::from_millis(10_000)),
        )
        .unwrap();
        session.run(9, frame_builder(&program, 1024)).unwrap();
        let left = session.drain(100).unwrap();
        assert_eq!(left, 0, "drain should clear the unacked window");
        // A dropped batch loses all of its envelopes together; they stay
        // unacked and retransmit as a group, so after draining every event
        // is applied exactly once with no duplicates.
        let applied: Vec<u64> = session.applied_results().keys().copied().collect();
        assert_eq!(applied, (1..=9).collect::<Vec<_>>());
        assert!(session.frames_lost() > 0, "seeded plan should drop at least one frame");
        assert!(session.retransmissions() > 0, "lost envelopes must retransmit");
        assert_eq!(session.duplicates_suppressed(), 0);
        assert!(session.envelope_batches() > 0);
    }

    #[test]
    fn poison_envelope_quarantines_and_watermark_advances() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(5).with_poison(4))
                .with_failure(FailureConfig::default().with_retry_budget(3))
                .with_degradation(2, 2),
        )
        .unwrap();
        session.run(8, frame_builder(&program, 1024)).unwrap();
        let left = session.drain(50).unwrap();
        // The poison envelope left the window through quarantine, not
        // delivery: the watermark advanced past it and nothing livelocks.
        assert_eq!(left, 0, "window cleared despite the poison envelope");
        assert_eq!(session.quarantined(), 1);
        let letters = session.dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].seq, 4);
        assert_eq!(letters[0].kind, FailureKind::Panic);
        assert_eq!(letters[0].failures, 3, "budget exhausted before quarantine");
        assert_eq!(session.handler_panics(), 3);
        // Exactly-once accounting: every other envelope applied once, the
        // poison envelope never applied.
        let applied: Vec<u64> = session.applied_results().keys().copied().collect();
        assert_eq!(applied, vec![1, 2, 3, 5, 6, 7, 8]);
        // The repeated panic walked the degradation ladder; the successes
        // afterwards re-promoted the optimized plan.
        assert!(session.degradations() >= 1, "panics degraded the session");
        let snap = session.obs().registry().snapshot();
        assert_eq!(snap.counter_sum("quarantined_total"), 1);
        assert_eq!(snap.counter_sum("handler_panics_total"), 3);
    }

    #[test]
    fn stalls_expire_deadlines_and_back_off_before_retry() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(23).with_stall(0.4)),
        )
        .unwrap();
        session.run(10, frame_builder(&program, 1024)).unwrap();
        session.drain(200).unwrap();
        assert_eq!(session.unacked(), 0);
        assert!(session.deadline_timeouts() > 0, "seeded stalls must expire deadlines");
        // Stalled frames were withheld, not lost: every event still
        // applied exactly once after backoff and retry.
        let applied: Vec<u64> = session.applied_results().keys().copied().collect();
        assert_eq!(applied, (1..=10).collect::<Vec<_>>());
        let snap = session.obs().registry().snapshot();
        assert_eq!(snap.counter_sum("deadline_timeouts_total"), session.deadline_timeouts());
    }

    #[test]
    fn overload_sheds_at_ingress_and_retransmits() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = SimSession::adaptive(
            Arc::clone(&program),
            "view",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            supervised_config(TriggerPolicy::Never, FaultPlan::new(23).with_overload(0.4)),
        )
        .unwrap();
        session.run(10, frame_builder(&program, 1024)).unwrap();
        session.drain(100).unwrap();
        assert_eq!(session.unacked(), 0);
        assert!(session.sheds() > 0, "seeded overload must shed at least one frame");
        assert!(session.retransmissions() > 0, "shed frames retransmit");
        let applied: Vec<u64> = session.applied_results().keys().copied().collect();
        assert_eq!(applied, (1..=10).collect::<Vec<_>>());
        let snap = session.obs().registry().snapshot();
        assert_eq!(
            snap.get("shed_total", &[("reason", "overload")]),
            Some(&mpart_obs::MetricValue::Counter(session.sheds())),
        );
    }

    #[test]
    fn k1_batching_is_identical_to_the_unbatched_wire_under_chaos() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let chaos = || FaultPlan::new(9).with_drop(0.2).with_corrupt(0.1).with_duplicate(0.1);
        let run_one = |cfg: SimConfig| {
            let mut s = SimSession::adaptive(
                Arc::clone(&program),
                "view",
                Arc::new(DataSizeModel::new()),
                BuiltinRegistry::new(),
                receiver_builtins(),
                cfg,
            )
            .unwrap();
            s.run(12, frame_builder(&program, 1024)).unwrap();
            s.drain(100).unwrap();
            (
                s.frames_lost(),
                s.frames_corrupted(),
                s.retransmissions(),
                s.duplicates_suppressed(),
                s.envelope_batches(),
                s.applied_results().clone(),
            )
        };
        // `batch_max == 1` always encodes singleton event frames, so the
        // seeded fault injector sees the exact same frame sequence as the
        // unbatched wire: identical decisions, identical outcomes.
        let plain = run_one(supervised_config(TriggerPolicy::Never, chaos()));
        let k1 = run_one(
            supervised_config(TriggerPolicy::Never, chaos())
                .with_batching(1, SimTime::from_millis(5)),
        );
        assert_eq!(plain, k1);
        assert_eq!(plain.4, 0);
    }
}
