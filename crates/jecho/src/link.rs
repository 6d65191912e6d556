//! The supervised link as a pure state machine: sequencing, the unacked
//! window, batch coalescing, acknowledgement folding, replay, dedup,
//! retry budgets and quarantine — once, for every transport.
//!
//! Nothing in this module reads a clock, touches a socket, spawns, or
//! waits. Time is a caller-supplied [`Ticks`] count (the drivers use
//! nanoseconds: virtual for the simulator, since-start for TCP); bytes go
//! in and out as decoded [`Frame`]s. A *driver* owns the I/O and feeds the
//! machine:
//!
//! * [`SenderHalf`] — `send` assigns the sequence number and parks the
//!   envelope in the window; `flush_due`/`flush` coalesce the not-yet-sent
//!   tail into one frame; `on_ack` folds a cumulative watermark (what
//!   [`ack_watermark`] reads off an `Ack`, `BatchAck` or `Plan` frame)
//!   and trims; `settle` takes a selective acknowledgement handed back
//!   out of band; `replay` re-frames the whole window after a reconnect
//!   (or for a retransmission round) and is the only place a
//!   *retransmission* is counted — a window entry that had already been
//!   on the wire once; `tick` answers heartbeat-or-stalled;
//!   `next_deadline` says when the driver should look again.
//! * [`ReceiverHalf`] — `on_frame` takes one decoded frame, suppresses
//!   duplicates against the contiguous watermark plus the set settled
//!   above it, hands each fresh envelope to the driver's apply step (its
//!   call of `Subscriber::apply`), charges failures to the
//!   [`RetryBudget`] and dead-letters an envelope that exhausts it (the
//!   watermark then passes the poison), and leaves in a reusable
//!   [`Received`] the reply frames to write and what the frame settled.
//!
//! What differs between drivers arrives as *input*: the time, the retry
//! budget, whether acknowledgements come back as in-order frames or as
//! out-of-band `settle` calls, and what the apply step does around the
//! subscriber (injected failure, cost accounting, when a plan proposal
//! installs). There is no branch on who is calling.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use mpart::continuation::ContinuationMessage;
use mpart::failure::{DeadLetter, DeadLetterRing, FailureKind, RetryBudget};
use mpart::profile::PseSample;
use mpart::PseId;
use mpart_ir::IrError;
use mpart_obs::{Counter, ObsHub, Registry, TraceEvent};

use crate::envelope::{EncodedFrame, Frame, ModulatedEvent, PlanEnvelope};

/// The machine's unit of time. Only differences and comparisons matter;
/// both drivers count nanoseconds.
pub type Ticks = u64;

/// The data frame carrying `events`: a lone event travels as a plain
/// [`Frame::Event`] — which keeps the `K = 1` wire byte-identical to the
/// unbatched one — anything else as one [`Frame::Batch`] in send order.
pub fn data_frame<'a>(
    mut events: impl ExactSizeIterator<Item = &'a (ModulatedEvent, u64)>,
) -> Frame {
    match (events.len(), events.next()) {
        (1, Some((event, t_mod_nanos))) => {
            Frame::Event { event: event.clone(), t_mod_nanos: *t_mod_nanos }
        }
        (_, first) => Frame::Batch { events: first.into_iter().chain(events).cloned().collect() },
    }
}

/// The acknowledgement watermark a receiver → sender frame carries, if
/// any: `Ack.ack`, `Plan.ack`, or the highest of a `BatchAck`.
pub fn ack_watermark(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Ack { ack } => Some(*ack),
        Frame::Plan(plan) => Some(plan.ack),
        Frame::BatchAck { watermarks } => Some(watermarks.iter().copied().max().unwrap_or(0)),
        _ => None,
    }
}

/// Frame encoding with the copy/borrow accounting every driver reports:
/// `marshal_copied_bytes_total` and `marshal_borrowed_bytes_total`.
#[derive(Debug)]
pub struct Encoder {
    copied: Counter,
    borrowed: Counter,
}

impl Encoder {
    /// Registers the two counters on `registry`.
    pub fn new(registry: &Registry) -> Self {
        Encoder {
            copied: registry.counter("marshal_copied_bytes_total", &[]),
            borrowed: registry.counter("marshal_borrowed_bytes_total", &[]),
        }
    }

    /// Encodes a frame into zero-copy wire segments.
    ///
    /// # Errors
    ///
    /// [`IrError::Marshal`] when the body exceeds the frame size limit.
    pub fn encode(&self, frame: &Frame) -> Result<EncodedFrame, IrError> {
        let enc = frame.try_encode_frame()?;
        self.copied.add(enc.copied_payload_bytes());
        self.borrowed.add(enc.borrowed_payload_bytes());
        Ok(enc)
    }
}

/// What [`SenderHalf::tick`] asks of the driver.
#[derive(Debug)]
pub enum Tick {
    /// Nothing on the wire is waiting for an acknowledgement.
    Idle,
    /// Write this liveness probe; the receiver answers with its watermark.
    Probe(Frame),
    /// The watermark has not moved for the stall timeout: declare the
    /// connection dead, reconnect, and [`replay`](SenderHalf::replay).
    Stalled,
}

/// The sending side of a supervised link.
#[derive(Debug)]
pub struct SenderHalf {
    /// Highest sequence number assigned.
    seq: u64,
    /// Highest contiguous sequence number acknowledged.
    acked: u64,
    /// Envelopes not yet acknowledged, in seq order, with their
    /// sender-side timing piggyback.
    window: VecDeque<(ModulatedEvent, u64)>,
    /// Continuation bytes held in `window`.
    in_flight_bytes: usize,
    /// Trailing window entries that have never been on the wire — the
    /// partially-filled batch awaiting a flush.
    unsent: usize,
    batch_max: usize,
    batch_deadline: Ticks,
    /// When the oldest unsent envelope entered the batch.
    pending_since: Option<Ticks>,
    stall_timeout: Ticks,
    /// When the watermark last moved, or the wire last went from idle to
    /// carrying something.
    last_progress: Ticks,
    retransmissions: Counter,
}

impl SenderHalf {
    /// An unbatched sender (every envelope flushes as its own frame)
    /// whose [`tick`](Self::tick) reports a stall once the watermark has
    /// stood still for `stall_timeout`. Counters register on `registry`.
    pub fn new(registry: &Registry, stall_timeout: Ticks) -> Self {
        SenderHalf {
            seq: 0,
            acked: 0,
            window: VecDeque::new(),
            in_flight_bytes: 0,
            unsent: 0,
            batch_max: 1,
            batch_deadline: 0,
            pending_since: None,
            stall_timeout,
            last_progress: 0,
            retransmissions: registry.counter("retransmissions_total", &[]),
        }
    }

    /// Coalesces up to `max` envelopes per frame, flushing a partial batch
    /// once `deadline` has passed since its oldest envelope.
    pub fn set_batching(&mut self, max: usize, deadline: Ticks) {
        self.batch_max = max.max(1);
        self.batch_deadline = deadline;
    }

    /// Highest sequence number assigned so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Envelopes sent or pending but not yet acknowledged.
    pub fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Continuation bytes of the envelopes sent or pending but not yet
    /// acknowledged (zero exactly when the window is empty).
    pub fn in_flight_bytes(&self) -> usize {
        self.in_flight_bytes
    }

    /// Continuation bytes of the envelopes on the wire and not yet
    /// acknowledged: [`in_flight_bytes`](Self::in_flight_bytes) less the
    /// unsent batch tail, which only a flush can make acknowledgeable.
    pub fn unacked_wire_bytes(&self) -> usize {
        let tail = self.window.iter().rev().take(self.unsent);
        self.in_flight_bytes - tail.map(|(e, _)| e.continuation.wire_size()).sum::<usize>()
    }

    /// Window entries put on the wire again after their first
    /// transmission.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions.get()
    }

    /// Accepts one modulated continuation: assigns the next sequence
    /// number and parks the envelope — which is returned — in the window
    /// until acknowledged. Nothing is on the wire until
    /// [`flush`](Self::flush).
    pub fn send(
        &mut self,
        continuation: ContinuationMessage,
        samples: Vec<PseSample>,
        t_mod_nanos: u64,
        now: Ticks,
    ) -> &ModulatedEvent {
        self.seq += 1;
        self.in_flight_bytes += continuation.wire_size();
        let parked = self.window.len();
        self.window
            .push_back((ModulatedEvent { seq: self.seq, continuation, samples }, t_mod_nanos));
        self.unsent += 1;
        self.pending_since.get_or_insert(now);
        &self.window[parked].0
    }

    /// Whether the unsent tail should go out now: batching is off, the
    /// batch is full, or its oldest envelope has waited out the deadline.
    pub fn flush_due(&self, now: Ticks) -> bool {
        self.unsent > 0
            && (self.unsent >= self.batch_max
                || self
                    .pending_since
                    .is_some_and(|since| now >= since.saturating_add(self.batch_deadline)))
    }

    /// Takes the unsent tail as one frame to write (`None` when there is
    /// none). The envelopes stay in the window until acknowledged.
    pub fn flush(&mut self, now: Ticks) -> Option<Frame> {
        if self.unsent == 0 {
            return None;
        }
        let start = self.window.len() - self.unsent;
        if start == 0 {
            // The wire was idle; the stall clock starts with this frame.
            self.last_progress = now;
        }
        let frame = data_frame(self.window.range(start..));
        self.unsent = 0;
        self.pending_since = None;
        Some(frame)
    }

    /// Re-frames the whole window, oldest first, in frames of up to the
    /// batch size: what goes onto a fresh connection after a reconnect,
    /// or one retransmission round of a lossy wire. Entries that had been
    /// on the wire before count as retransmissions; a never-sent tail
    /// rides along and does not.
    pub fn replay(&mut self, now: Ticks) -> Vec<Frame> {
        self.retransmissions.add((self.window.len() - self.unsent) as u64);
        let frames = self
            .window
            .make_contiguous()
            .chunks(self.batch_max)
            .map(|chunk| data_frame(chunk.iter()))
            .collect();
        self.unsent = 0;
        self.pending_since = None;
        self.last_progress = now;
        frames
    }

    /// Folds a cumulative acknowledgement: everything up to `watermark`
    /// leaves the window. Stale watermarks are ignored.
    pub fn on_ack(&mut self, watermark: u64, now: Ticks) {
        if watermark > self.acked {
            self.acked = watermark;
            self.last_progress = now;
        }
        while self.window.front().is_some_and(|(event, _)| event.seq <= self.acked) {
            if let Some((event, _)) = self.window.pop_front() {
                self.in_flight_bytes -= event.continuation.wire_size();
            }
        }
        self.unsent = self.unsent.min(self.window.len());
    }

    /// Takes a selective acknowledgement handed back out of band: exactly
    /// `seq` leaves the window, whatever is still outstanding around it.
    pub fn settle(&mut self, seq: u64) {
        if let Ok(at) = self.window.binary_search_by_key(&seq, |(event, _)| event.seq) {
            if at >= self.window.len() - self.unsent {
                self.unsent -= 1;
            }
            if let Some((event, _)) = self.window.remove(at) {
                self.in_flight_bytes -= event.continuation.wire_size();
            }
        }
    }

    fn awaiting_ack(&self) -> bool {
        self.window.len() > self.unsent
    }

    /// Liveness while envelopes await acknowledgement: a heartbeat to
    /// write, or the verdict that the watermark has stalled.
    pub fn tick(&self, now: Ticks) -> Tick {
        if !self.awaiting_ack() {
            Tick::Idle
        } else if now.saturating_sub(self.last_progress) > self.stall_timeout {
            Tick::Stalled
        } else {
            Tick::Probe(Frame::Heartbeat { seq: self.seq })
        }
    }

    /// The earliest time at which [`flush_due`](Self::flush_due) or
    /// [`tick`](Self::tick) can change its answer without new input.
    pub fn next_deadline(&self) -> Option<Ticks> {
        let flush = self.pending_since.map(|since| since.saturating_add(self.batch_deadline));
        let stall =
            self.awaiting_ack().then(|| self.last_progress.saturating_add(self.stall_timeout));
        match (flush, stall) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// What the driver's apply step reports for one fresh envelope.
#[derive(Debug)]
pub enum Verdict {
    /// Demodulated and applied. `plan` is the `(epoch, active set)` of a
    /// plan the driver installed at once, which the machine announces to
    /// the sender in a `Plan` frame carrying the acknowledgement.
    Applied {
        /// The plan installed on this envelope's feedback, if any.
        plan: Option<(u64, Vec<PseId>)>,
    },
    /// Demodulation failed (or the driver injected a failure): nothing
    /// was applied; charge the retry budget.
    Failed(IrError),
    /// The connection died here: stop processing the frame, write
    /// nothing.
    Disconnect,
}

/// What the driver does with the connection after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Write the replies and read the next frame.
    Continue,
    /// The sender shut the session down in order.
    Shutdown,
    /// Drop the connection without replying (protocol violation, or the
    /// driver's [`Verdict::Disconnect`]); a supervised sender reconnects.
    Disconnect,
}

/// Output of [`ReceiverHalf::on_frame`], reused across frames so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub struct Received {
    /// Frames to write back, in order.
    pub replies: Vec<Frame>,
    /// Sequence numbers the frame settled for good — applied, duplicate,
    /// or dead-lettered — in frame order: what a reliable out-of-band
    /// acknowledgement hands to [`SenderHalf::settle`].
    pub settled: Vec<u64>,
    /// Envelopes of the frame whose demodulation failed, whether they
    /// will be retried or were dead-lettered.
    pub failed: u32,
}

/// The receiving side of a supervised link.
#[derive(Debug)]
pub struct ReceiverHalf {
    /// Highest contiguous sequence number settled (applied or
    /// dead-lettered).
    watermark: u64,
    /// Sequence numbers settled above a gap in the watermark.
    above: BTreeSet<u64>,
    retry: RetryBudget,
    deadletter: Arc<DeadLetterRing>,
    /// Plan frames sent so far (`PlanEnvelope::revision`).
    revision: u64,
    obs: Arc<ObsHub>,
    batches: Counter,
    batched_events: Counter,
    duplicates: Counter,
    member_acks: Counter,
    panics: Counter,
    quarantined: Counter,
}

impl ReceiverHalf {
    /// A receiver that quarantines an envelope into `deadletter` after
    /// `retry_budget` failures. Counters register on `obs`.
    pub fn new(obs: Arc<ObsHub>, retry_budget: u32, deadletter: Arc<DeadLetterRing>) -> Self {
        let registry = obs.registry();
        ReceiverHalf {
            watermark: 0,
            above: BTreeSet::new(),
            retry: RetryBudget::new(retry_budget),
            deadletter,
            revision: 0,
            batches: registry.counter("envelope_batches_total", &[]),
            batched_events: registry.counter("batched_events_total", &[]),
            duplicates: registry.counter("duplicates_suppressed_total", &[]),
            member_acks: registry.counter("batch_member_acks_total", &[]),
            panics: registry.counter("handler_panics_total", &[("side", "demodulator")]),
            quarantined: registry.counter("quarantined_total", &[]),
            obs,
        }
    }

    /// Highest contiguous sequence number settled.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Multi-event batch frames that arrived intact (a lone event is a
    /// plain event frame and does not count).
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Events that arrived inside multi-event batch frames.
    pub fn batched_events(&self) -> u64 {
        self.batched_events.get()
    }

    /// Duplicate arrivals suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates.get()
    }

    /// Batch members applied and acknowledged at their member boundary —
    /// standalone ack frames the `BatchAck` piggyback saved.
    pub fn batch_member_acks(&self) -> u64 {
        self.member_acks.get()
    }

    /// Demodulator panics, caught by the isolation boundary or injected.
    pub fn handler_panics(&self) -> u64 {
        self.panics.get()
    }

    /// The dead-letter ring quarantined envelopes go to.
    pub fn deadletter(&self) -> &Arc<DeadLetterRing> {
        &self.deadletter
    }

    fn settled(&self, seq: u64) -> bool {
        seq <= self.watermark || self.above.contains(&seq)
    }

    fn settle(&mut self, seq: u64, out: &mut Received) {
        if seq == self.watermark + 1 {
            self.watermark = seq;
            while self.above.remove(&(self.watermark + 1)) {
                self.watermark += 1;
            }
        } else if seq > self.watermark {
            self.above.insert(seq);
        }
        out.settled.push(seq);
    }

    /// Takes one decoded frame from the sender. Envelopes are handed to
    /// `apply` — the driver's call of [`Subscriber::apply`] with its own
    /// clock, fault injection and install policy — one by one in frame
    /// order, duplicates excepted, so ordering, dedup and poison-skip are
    /// the same for a batch as for singletons; only the acknowledgement
    /// differs — a lone event is answered with its own `Ack` (or the
    /// `Plan` that carries it), a batch with one `BatchAck` holding a
    /// watermark per settled member. `out` is cleared first.
    ///
    /// [`Subscriber::apply`]: mpart::subscriber::Subscriber::apply
    ///
    /// # Errors
    ///
    /// Whatever `apply` returns as `Err`: a failure that is not the
    /// envelope's (a broken analysis invariant). Envelope failures are
    /// [`Verdict::Failed`] and never surface here.
    pub fn on_frame(
        &mut self,
        frame: Frame,
        apply: &mut impl FnMut(ModulatedEvent, u64) -> Result<Verdict, IrError>,
        out: &mut Received,
    ) -> Result<Control, IrError> {
        out.replies.clear();
        out.settled.clear();
        out.failed = 0;
        let mut alive = true;
        match frame {
            Frame::Shutdown => return Ok(Control::Shutdown),
            // Plans and acks flow receiver → sender only.
            Frame::Plan(_) | Frame::Ack { .. } | Frame::BatchAck { .. } => alive = false,
            Frame::Heartbeat { .. } => out.replies.push(Frame::Ack { ack: self.watermark }),
            Frame::Event { event, t_mod_nanos } => {
                alive = self.arrive(event, t_mod_nanos, apply, out, None)?;
            }
            Frame::Batch { events } => {
                if events.len() >= 2 {
                    self.batches.inc();
                    self.batched_events.add(events.len() as u64);
                }
                let mut watermarks = Vec::with_capacity(events.len());
                for (event, t_mod_nanos) in events {
                    alive = alive
                        && self.arrive(event, t_mod_nanos, apply, out, Some(&mut watermarks))?;
                }
                if !watermarks.is_empty() {
                    out.replies.push(Frame::BatchAck { watermarks });
                }
            }
        }
        Ok(if alive { Control::Continue } else { Control::Disconnect })
    }

    /// One envelope: dedup, apply, settle, and acknowledge — into the
    /// batch's `watermarks` when it has one, else with a lone `Ack`
    /// unless a `Plan` reply already carries it. An envelope that failed
    /// within its retry budget is not acknowledged; the sender
    /// retransmits it. Returns `false` when the connection died.
    fn arrive(
        &mut self,
        event: ModulatedEvent,
        t_mod_nanos: u64,
        apply: &mut impl FnMut(ModulatedEvent, u64) -> Result<Verdict, IrError>,
        out: &mut Received,
        watermarks: Option<&mut Vec<u64>>,
    ) -> Result<bool, IrError> {
        let seq = event.seq;
        let mut plan = None;
        if self.settled(seq) {
            // A late retransmitted copy: acknowledge, never re-apply.
            self.duplicates.inc();
            out.settled.push(seq);
        } else {
            match apply(event, t_mod_nanos)? {
                Verdict::Disconnect => return Ok(false),
                Verdict::Failed(err) if !self.fail(seq, &err, out) => return Ok(true),
                Verdict::Failed(_) => {}
                Verdict::Applied { plan: installed } => {
                    self.settle(seq, out);
                    self.retry.clear(seq);
                    if watermarks.is_some() {
                        self.member_acks.inc();
                    }
                    plan = installed;
                }
            }
        }
        let plan_sent = plan.is_some();
        if let Some((epoch, active)) = plan {
            self.revision += 1;
            let (revision, ack) = (self.revision, self.watermark);
            out.replies.push(Frame::Plan(PlanEnvelope { active, revision, epoch, ack }));
        }
        match watermarks {
            Some(watermarks) => watermarks.push(self.watermark),
            None if !plan_sent => out.replies.push(Frame::Ack { ack: self.watermark }),
            None => {}
        }
        Ok(true)
    }

    /// The failure path: charge the retry budget; once exhausted,
    /// dead-letter the envelope and settle it so the watermark advances
    /// past the poison instead of livelocking the window. Returns whether
    /// the envelope was settled.
    fn fail(&mut self, seq: u64, err: &IrError, out: &mut Received) -> bool {
        out.failed += 1;
        let kind = if matches!(err, IrError::HandlerPanic(_)) {
            self.panics.inc();
            self.obs.record(TraceEvent::HandlerPanic { seq });
            FailureKind::Panic
        } else {
            FailureKind::Decode
        };
        let failures = self.retry.record(seq);
        if !self.retry.exhausted(failures) {
            return false;
        }
        self.retry.clear(seq);
        self.settle(seq, out);
        self.deadletter.push(DeadLetter { seq, kind, failures, error: err.to_string() });
        self.quarantined.inc();
        self.obs.record(TraceEvent::Quarantined { seq, failures });
        true
    }
}

/// Both halves of one supervised link, for a driver that hosts sender
/// and receiver in one place (the simulator, the exhaustive checks).
#[derive(Debug)]
pub struct LinkMachine {
    /// The sending side.
    pub sender: SenderHalf,
    /// The receiving side.
    pub receiver: ReceiverHalf,
}
