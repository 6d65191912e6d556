//! A real-socket transport: modulated events and plan updates cross a TCP
//! connection as checksummed [`Frame`]s.
//!
//! This is the closest analogue to the paper's deployment: sender and
//! receiver own separate address spaces, the continuation travels as
//! marshalled bytes, and the Reconfiguration Unit's plan updates flow back
//! over the same full-duplex connection. (The sender and receiver here
//! share the analyzed handler via `Arc` the way JECho ships the modulator
//! class to the source at subscription time.)
//!
//! [`TcpReceiver`] is the socket driver of the link machine's
//! [`ReceiverHalf`]: it accepts successive sender connections (a
//! reconnecting [`Supervisor`](crate::supervisor) shows up as a fresh
//! connection), reads frames, feeds them to the machine — which
//! deduplicates across connections, applies, quarantines and decides what
//! to acknowledge — and writes the machine's replies back. Its clock is
//! the wall clock and its retry budget is 1: this wire's retry story is
//! the supervisor's reconnect backoff, and a deterministic poison would
//! loop forever if retried here. A garbled or dead connection is dropped,
//! never fatal.
//!
//! Both directions read frames through a `BufReader`, so a burst of small
//! frames costs one `read` call, not two per frame. The receiver writes
//! replies when the traffic lets them go, not once per frame: each frame's
//! replies queue behind those still pending, and the queue goes out in one
//! gathered write when the read buffer holds no whole next frame, when a
//! `Plan` is queued, when the oldest reply has waited `REPLY_HOLD` (1 ms),
//! or when the loop is about to leave the connection. Every reply frame is
//! still written, byte for byte and in order; only the number of write
//! calls changes (WIRE.md §7).

use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mpart::failure::{DeadLetter, DeadLetterRing};
use mpart::modulator::{ModRun, Modulator};
use mpart::profile::TriggerPolicy;
use mpart::reconfig::ReconfigUnit;
use mpart::subscriber::{Subscriber, Timing};
use mpart::PartitionedHandler;
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::{Counter, PlanReason};

use crate::envelope::{parse_header, write_all_vectored, EncodedFrame, Frame, ModulatedEvent};
use crate::link::{ack_watermark, data_frame, Control, Encoder, Received, ReceiverHalf, Verdict};

/// Outcome of one delivery, reported back from the receiver thread.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Message sequence number.
    pub seq: u64,
    /// Handler return value.
    pub ret: Option<Value>,
    /// The PSE the message split at.
    pub split_pse: mpart::PseId,
    /// Wire bytes of the event.
    pub wire_bytes: usize,
    /// Whether the receiver reconfigured the plan after this message.
    pub reconfigured: bool,
}

/// The source-side roles of a wall-clock session: the program, the shared
/// handler's modulator, and the builtins event construction may call.
pub(crate) struct Source {
    program: Arc<Program>,
    pub(crate) handler: Arc<PartitionedHandler>,
    modulator: Modulator,
    sender_builtins: BuiltinRegistry,
}

impl Source {
    pub(crate) fn new(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
    ) -> Self {
        Source { modulator: handler.modulator(), program, handler, sender_builtins }
    }

    /// Builds one event in a fresh context and runs the modulator on it;
    /// returns the run and the modulator's wall-clock nanoseconds.
    pub(crate) fn modulate(
        &self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(ModRun, u64), IrError> {
        let mut ctx = ExecCtx::without_digests(&self.program, self.sender_builtins.clone());
        let args = make_event(&mut ctx)?;
        let started = Instant::now();
        let run = self.modulator.handle(&mut ctx, args)?;
        Ok((run, started.elapsed().as_nanos() as u64))
    }
}

/// A receiver endpoint bound to a TCP port.
pub struct TcpReceiver {
    handler: Arc<PartitionedHandler>,
    port: u16,
    accept_thread: Option<JoinHandle<Result<u64, IrError>>>,
    outcomes: Receiver<LocalOutcome>,
    /// `demod_errors_total` on the handler's metrics registry.
    demod_errors: Counter,
    deadletter: Arc<DeadLetterRing>,
}

impl std::fmt::Debug for TcpReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpReceiver")
            .field("handler", &self.handler.func_name())
            .field("port", &self.port)
            .finish()
    }
}

impl TcpReceiver {
    /// Analyzes `handler_fn` and binds a listener on `127.0.0.1:0`
    /// (ephemeral port). The receiver serves sender connections one at a
    /// time — a dropped connection sends it back to `accept`, so a
    /// reconnecting sender resumes the stream — demodulating events and
    /// pushing plan updates back, until a `Shutdown` frame arrives.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures; returns [`IrError::Marshal`] when the
    /// socket cannot be bound.
    pub fn bind(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
    ) -> Result<Self, IrError> {
        let handler = PartitionedHandler::analyze(Arc::clone(&program), handler_fn, model)?;
        Self::bind_inner(program, handler, receiver_builtins, trigger, None)
    }

    /// Like [`bind`](Self::bind), but forcibly drops the first connection
    /// after `disconnect_after` events have arrived on it — a
    /// fault-injection hook for exercising sender-side reconnect and
    /// retransmission (the receiver itself keeps running and accepts the
    /// next connection).
    ///
    /// # Errors
    ///
    /// Same as [`bind`](Self::bind).
    pub fn bind_faulty(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
        disconnect_after: u64,
    ) -> Result<Self, IrError> {
        let handler = PartitionedHandler::analyze(Arc::clone(&program), handler_fn, model)?;
        Self::bind_inner(program, handler, receiver_builtins, trigger, Some(disconnect_after))
    }

    /// Like [`bind`](Self::bind) with a pre-analyzed handler — the path
    /// for sharing one cached analysis across both wire halves and across
    /// sessions (the throughput bench's `--tcp` sweep).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] when the socket cannot be bound.
    pub fn bind_with_handler(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
    ) -> Result<Self, IrError> {
        Self::bind_inner(program, handler, receiver_builtins, trigger, None)
    }

    fn bind_inner(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
        mut disconnect_after: Option<u64>,
    ) -> Result<Self, IrError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| IrError::Marshal(format!("bind: {e}")))?;
        let port =
            listener.local_addr().map_err(|e| IrError::Marshal(format!("local_addr: {e}")))?.port();
        let (outcome_tx, outcomes) = sync_channel::<LocalOutcome>(1024);
        let demod_errors = handler.obs().registry().counter("demod_errors_total", &[]);
        let deadletter = Arc::new(DeadLetterRing::new(32));

        let error_metric = demod_errors.clone();
        let reconfig =
            ReconfigUnit::new(Arc::clone(handler.analysis()), handler.model().kind(), trigger)
                .with_obs(Arc::clone(handler.obs()))
                .with_plan_watch(handler.plan().clone());
        let mut subscriber = Subscriber::new(Arc::clone(&handler), reconfig);
        // Watermark and dedup state live in the machine, so they survive
        // reconnects: retransmitted events are acknowledged, not re-applied.
        let mut link = ReceiverHalf::new(Arc::clone(handler.obs()), 1, Arc::clone(&deadletter));
        let accept_thread = std::thread::spawn(move || -> Result<u64, IrError> {
            let mut ctx = ExecCtx::without_digests(&program, receiver_builtins);
            let mut received = Received::default();
            let mut processed = 0u64;
            'accepting: loop {
                let (stream, _) =
                    listener.accept().map_err(|e| IrError::Marshal(format!("accept: {e}")))?;
                let Ok(read_half) = stream.try_clone() else { continue 'accepting };
                let mut read_half = BufReader::new(read_half);
                let mut write_half = stream;
                let mut replies = Replies::default();
                let mut on_this_conn = 0u64;
                // The apply step: the subscriber under the wall clock. A
                // validated proposal installs at once (recording the
                // generation for the demodulator's history) and the
                // machine tells the sender which epoch it became.
                let mut apply = |event: ModulatedEvent, t_mod_nanos: u64| {
                    if disconnect_after.is_some_and(|limit| on_this_conn >= limit) {
                        disconnect_after = None;
                        return Ok(Verdict::Disconnect);
                    }
                    on_this_conn += 1;
                    let wire_bytes = event.wire_size();
                    let mod_work = event.continuation.mod_work;
                    let started = Instant::now();
                    let applied =
                        subscriber.apply(&mut ctx, &event.continuation, event.samples, |demod| {
                            Timing {
                                mod_work,
                                t_mod: (t_mod_nanos > 0).then_some(t_mod_nanos as f64 / 1e9),
                                demod_work: demod.demod_work,
                                t_demod: Some(started.elapsed().as_secs_f64()),
                            }
                        });
                    // Nothing outside this thread can read the context, so
                    // its native-call trace goes the way of the heap cells.
                    ctx.trace.clear();
                    let applied = match applied {
                        Ok(applied) => applied,
                        Err(e) => return Ok(Verdict::Failed(e)),
                    };
                    let plan = applied.proposal?.and_then(|proposal| {
                        let active = proposal.active().to_vec();
                        let epoch = subscriber.install(proposal, PlanReason::Reconfig)?;
                        Some((epoch, active))
                    });
                    processed += 1;
                    // Non-blocking: if the consumer stops draining
                    // outcomes, drop them instead of deadlocking the
                    // shutdown path behind a full channel.
                    let _ = outcome_tx.try_send(LocalOutcome {
                        seq: event.seq,
                        ret: applied.demod.ret,
                        split_pse: event.continuation.pse,
                        wire_bytes,
                        reconfigured: plan.is_some(),
                    });
                    Ok(Verdict::Applied { plan })
                };
                loop {
                    // Garbled or dead connection: drop it and accept the
                    // next one; the supervisor retransmits. Whatever the
                    // loop leaves on, the replies of the frames before go
                    // out first, as they would have one frame at a time.
                    let Ok(frame) = Frame::read_from(&mut read_half) else {
                        let _ = replies.write(&mut write_half);
                        continue 'accepting;
                    };
                    let control = link.on_frame(frame, &mut apply, &mut received)?;
                    error_metric.add(u64::from(received.failed));
                    if control != Control::Continue {
                        let _ = replies.write(&mut write_half);
                        match control {
                            Control::Shutdown => break 'accepting,
                            _ => continue 'accepting,
                        }
                    }
                    // A failed write drops the connection: the sender sees
                    // a reset, never a spliced frame.
                    if replies.queue(&received.replies).is_err()
                        || (replies.due(read_half.buffer())
                            && replies.write(&mut write_half).is_err())
                    {
                        continue 'accepting;
                    }
                }
            }
            Ok(processed)
        });

        Ok(TcpReceiver {
            handler,
            port,
            accept_thread: Some(accept_thread),
            outcomes,
            demod_errors,
            deadletter,
        })
    }

    /// The bound port on localhost.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The analyzed handler, to hand to the sender (JECho's "modulator
    /// installation").
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// Events that failed demodulation and were skipped (acknowledged but
    /// never applied).
    pub fn demod_errors(&self) -> u64 {
        self.demod_errors.get()
    }

    /// The quarantined (acknowledged-and-skipped) envelopes currently
    /// retained in the dead-letter ring, oldest first.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.deadletter.snapshot()
    }

    /// Waits for the next processed outcome.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if the receiver stopped.
    pub fn next_outcome(&self) -> Result<LocalOutcome, IrError> {
        self.outcomes.recv().map_err(|_| IrError::Continuation("tcp receiver stopped".into()))
    }

    /// Joins the receiver after a sender shut the session down, returning
    /// the number of distinct events applied (duplicates excluded).
    ///
    /// # Errors
    ///
    /// Propagates any fatal error the receiver hit.
    pub fn join(mut self) -> Result<u64, IrError> {
        match self.accept_thread.take() {
            Some(t) => match t.join() {
                Ok(result) => result,
                Err(_) => Err(IrError::Continuation("tcp receiver panicked".into())),
            },
            None => Ok(0),
        }
    }
}

/// How long the receiver may hold a reply while more frames wait in its
/// read buffer: far below any `RetryPolicy::stall_timeout` a sender would
/// use, so a slow handler cannot stall the sender's watermark.
const REPLY_HOLD: Duration = Duration::from_millis(1);

/// Whether `buffered` begins with one whole frame, header and body. A
/// header whose length exceeds `MAX_FRAME_SIZE` never counts as whole.
fn holds_frame(buffered: &[u8]) -> bool {
    buffered.split_first_chunk().is_some_and(|(header, body)| {
        parse_header(header).is_ok_and(|(_, len, _)| body.len() >= len)
    })
}

/// The replies one connection owes its sender, gathered across frames and
/// written together with one vectored write when [`due`](Self::due).
#[derive(Default)]
struct Replies {
    pending: Vec<EncodedFrame>,
    /// When the oldest pending reply was queued.
    since: Option<Instant>,
    /// Whether a `Plan` is pending.
    plan: bool,
}

impl Replies {
    /// Encodes one frame's replies behind those already pending.
    fn queue(&mut self, replies: &[Frame]) -> Result<(), IrError> {
        for reply in replies {
            self.plan |= matches!(reply, Frame::Plan(_));
            self.pending.push(reply.try_encode_frame()?);
        }
        if !self.pending.is_empty() {
            self.since.get_or_insert_with(Instant::now);
        }
        Ok(())
    }

    /// Pending replies go when the read buffer holds no whole next frame
    /// (the next read may block, so nothing is held across it), when a
    /// plan is among them (adaptation lag does not grow), or when the
    /// oldest has waited [`REPLY_HOLD`].
    fn due(&self, buffered: &[u8]) -> bool {
        self.since.is_some_and(|since| {
            !holds_frame(buffered) || self.plan || since.elapsed() >= REPLY_HOLD
        })
    }

    /// Writes every pending reply, in order, with one gathered write.
    fn write(&mut self, out: &mut TcpStream) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bufs: Vec<&[u8]> =
            self.pending.iter().flat_map(EncodedFrame::segments).map(|s| s.as_ref()).collect();
        let written = write_all_vectored(out, &bufs);
        self.pending.clear();
        self.since = None;
        self.plan = false;
        written
    }
}

/// One live connection to a [`TcpReceiver`]: the write half and the
/// thread reading control traffic off the read half.
pub(crate) struct Connection {
    write_half: TcpStream,
    reader: Option<JoinHandle<()>>,
    /// `plan_updates_applied_total` on the handler's metrics registry.
    plans_applied: Counter,
    encoder: Encoder,
}

impl Connection {
    /// Dials `port` on localhost. Control traffic (plan updates, acks)
    /// arrives asynchronously: plans were already installed by the
    /// receiver into the shared handler, so the reading thread only folds
    /// every frame's acknowledgement into `acked` — which the caller owns,
    /// so the watermark survives reconnects — and counts plan updates.
    pub(crate) fn dial(
        handler: &PartitionedHandler,
        port: u16,
        acked: Arc<AtomicU64>,
    ) -> Result<Self, IrError> {
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| IrError::Marshal(format!("connect: {e}")))?;
        let mut read_half = BufReader::new(
            stream.try_clone().map_err(|e| IrError::Marshal(format!("clone: {e}")))?,
        );
        let plans_applied = handler.obs().registry().counter("plan_updates_applied_total", &[]);
        let plan_metric = plans_applied.clone();
        let reader = std::thread::spawn(move || {
            while let Ok(frame) = Frame::read_from(&mut read_half) {
                // Anything without a watermark is `Shutdown`, or a frame
                // kind that only flows sender → receiver.
                let Some(watermark) = ack_watermark(&frame) else { break };
                acked.fetch_max(watermark, Ordering::AcqRel);
                if matches!(frame, Frame::Plan(_)) {
                    plan_metric.inc();
                }
            }
        });
        Ok(Connection {
            write_half: stream,
            reader: Some(reader),
            plans_applied,
            encoder: Encoder::new(handler.obs().registry()),
        })
    }

    /// Encodes `frame` into zero-copy segments and gathers them onto the
    /// socket with one vectored write: large continuation payloads go
    /// straight from the marshalled buffer, no intermediate copy.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), IrError> {
        self.encoder.encode(frame)?.write_to(&mut self.write_half)?;
        self.write_half.flush().map_err(|e| IrError::Marshal(format!("flush: {e}")))
    }

    fn join_reader(&mut self) {
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }

    /// Sends the shutdown frame and joins the reading thread.
    pub(crate) fn shutdown(mut self) -> Result<(), IrError> {
        Frame::Shutdown.write_to(&mut self.write_half)?;
        let _ = self.write_half.flush();
        let _ = self.write_half.shutdown(std::net::Shutdown::Write);
        self.join_reader();
        Ok(())
    }

    /// Tears the connection down without the shutdown handshake, leaving
    /// the receiver running (it returns to `accept`). Used when a
    /// connection is declared dead.
    pub(crate) fn abandon(mut self) {
        let _ = self.write_half.shutdown(std::net::Shutdown::Both);
        self.join_reader();
        // Drop runs next but the socket is already down; the extra
        // Shutdown write in Drop fails harmlessly.
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let _ = Frame::Shutdown.write_to(&mut self.write_half);
        let _ = self.write_half.shutdown(std::net::Shutdown::Both);
        self.join_reader();
    }
}

/// The sender endpoint: runs the modulator locally and streams modulated
/// events to a [`TcpReceiver`].
///
/// One `TcpSender` is one connection and keeps no window: if the
/// connection dies, in-flight events die with it. For retry,
/// reconnection, and retransmission use a
/// [`Supervisor`](crate::supervisor::Supervisor), which drives the link
/// machine's sender half over successive connections.
pub struct TcpSender {
    source: Source,
    conn: Connection,
    seq: u64,
    acked: Arc<AtomicU64>,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("handler", &self.source.handler.func_name())
            .field("sent", &self.seq)
            .finish()
    }
}

impl TcpSender {
    /// Connects to a receiver and installs its modulator (shared handler).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] if the connection fails.
    pub fn connect(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
        port: u16,
    ) -> Result<Self, IrError> {
        Self::connect_with(program, handler, sender_builtins, port, Arc::new(AtomicU64::new(0)), 0)
    }

    /// Like [`connect`](Self::connect), with caller-owned shared state: the
    /// `acked` watermark survives across connections (pass the same counter
    /// to each successive one) and `start_seq` resumes the sequence
    /// numbering where the previous connection left off.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Marshal`] if the connection fails.
    pub fn connect_with(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
        port: u16,
        acked: Arc<AtomicU64>,
        start_seq: u64,
    ) -> Result<Self, IrError> {
        let conn = Connection::dial(&handler, port, Arc::clone(&acked))?;
        Ok(TcpSender {
            source: Source::new(program, handler, sender_builtins),
            conn,
            seq: start_seq,
            acked,
        })
    }

    /// Number of plan updates applied so far.
    pub fn plans_applied(&self) -> u64 {
        self.conn.plans_applied.get()
    }

    /// Highest contiguous event seq the receiver has acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Highest event seq assigned so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Runs the modulator on one event, assigning it the next sequence
    /// number, without touching the socket. The result can be sent (and
    /// later re-sent) with [`send_event`](Self::send_event).
    ///
    /// # Errors
    ///
    /// Propagates modulator errors.
    pub fn modulate(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(ModulatedEvent, u64), IrError> {
        self.seq += 1;
        let (run, t_mod_nanos) = self.source.modulate(make_event)?;
        let event =
            ModulatedEvent { seq: self.seq, continuation: run.message, samples: run.samples };
        Ok((event, t_mod_nanos))
    }

    /// Writes one already-modulated event to the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_event(&mut self, event: &ModulatedEvent, t_mod_nanos: u64) -> Result<(), IrError> {
        self.conn.send(&Frame::Event { event: event.clone(), t_mod_nanos })
    }

    /// Coalesces already-modulated events into a single data frame (one
    /// header, one checksum, one gathered writev over all member segments)
    /// and writes it to the socket. Events keep their order; an empty
    /// slice is a no-op and a single event is sent as a plain
    /// [`Frame::Event`], so framing stays byte-identical to the unbatched
    /// path when there is nothing to coalesce.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_batch(&mut self, events: &[(ModulatedEvent, u64)]) -> Result<(), IrError> {
        if events.is_empty() {
            return Ok(());
        }
        self.conn.send(&data_frame(events.iter()))
    }

    /// Sends a liveness probe carrying the highest seq sent; the receiver
    /// answers with an `Ack` frame.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn heartbeat(&mut self) -> Result<(), IrError> {
        self.conn.send(&Frame::Heartbeat { seq: self.seq })
    }

    /// Publishes one event over the socket (modulate + send).
    ///
    /// # Errors
    ///
    /// Propagates modulator and socket errors.
    pub fn publish(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(), IrError> {
        let (event, t_mod_nanos) = self.modulate(make_event)?;
        self.send_event(&event, t_mod_nanos)
    }

    /// Sends the shutdown frame and joins the control-reading thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn shutdown(self) -> Result<(), IrError> {
        self.conn.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{FRAME_HEADER_BYTES, MAX_FRAME_SIZE};
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;
    use mpart_ir::types::ElemType;

    const SRC: &str = r#"
        class Doc { n: int, text: ref }

        fn shrink(d) {
            out = new Doc
            out.n = 4
            t = new byte[4]
            out.text = t
            return out
        }

        fn index(event) {
            ok = event instanceof Doc
            if ok == 0 goto skip
            d = (Doc) event
            s = call shrink(d)
            native store(s)
            return 1
        skip:
            return 0
        }
    "#;

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("store", 1, |_, _| Ok(Value::Null));
        b
    }

    fn doc(
        program: &Arc<Program>,
        n: usize,
    ) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
        let classes = &program.classes;
        move |ctx| {
            let class = classes.id("Doc").unwrap();
            let decl = classes.decl(class);
            let d = ctx.heap.alloc_object(classes, class);
            let t = ctx.heap.alloc_array(ElemType::Byte, n);
            ctx.heap.set_field(d, decl.field("n").unwrap(), Value::Int(n as i64))?;
            ctx.heap.set_field(d, decl.field("text").unwrap(), Value::Ref(t))?;
            Ok(vec![Value::Ref(d)])
        }
    }

    #[test]
    fn tcp_round_trip_with_adaptation() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "index",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Rate(1),
        )
        .unwrap();
        let mut sender = TcpSender::connect(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
        )
        .unwrap();

        let mut last_bytes = usize::MAX;
        for _ in 0..10 {
            sender.publish(doc(&program, 20_000)).unwrap();
            let outcome = receiver.next_outcome().unwrap();
            assert_eq!(outcome.ret, Some(Value::Int(1)));
            last_bytes = outcome.wire_bytes;
        }
        assert!(last_bytes < 1000, "adaptation shrank the wire to {last_bytes} bytes");
        // Plan frames are counted by the sender's ack reader, which the
        // shutdown handshake joins after it has read every frame the
        // receiver wrote.
        sender.shutdown().unwrap();
        let snap = receiver.handler().obs().registry().snapshot();
        assert!(snap.counter_sum("plan_updates_applied_total") >= 1);
        assert_eq!(receiver.join().unwrap(), 10);
    }

    #[test]
    fn filtered_events_cross_tcp_cheaply() {
        let program = Arc::new(parse_program(SRC).unwrap());
        // Zero events: an idle session still shuts down cleanly.
        for events in [0, 4] {
            let receiver = TcpReceiver::bind(
                Arc::clone(&program),
                "index",
                Arc::new(DataSizeModel::new()),
                receiver_builtins(),
                TriggerPolicy::Rate(1),
            )
            .unwrap();
            let mut sender = TcpSender::connect(
                Arc::clone(&program),
                Arc::clone(receiver.handler()),
                BuiltinRegistry::new(),
                receiver.port(),
            )
            .unwrap();
            let mut last_bytes = 0;
            for _ in 0..events {
                sender.publish(|_| Ok(vec![Value::Int(9)])).unwrap();
                let outcome = receiver.next_outcome().unwrap();
                assert_eq!(outcome.ret, Some(Value::Int(0)));
                last_bytes = outcome.wire_bytes;
            }
            // Filtered events ship almost nothing.
            assert!(last_bytes < 64, "filtered event wire bytes: {last_bytes}");
            sender.shutdown().unwrap();
            assert_eq!(receiver.join().unwrap(), events);
        }
    }

    #[test]
    fn batched_events_demodulate_in_order_with_one_frame() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "index",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .unwrap();
        let mut sender = TcpSender::connect(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
        )
        .unwrap();
        let batch: Vec<(ModulatedEvent, u64)> =
            (0..5).map(|_| sender.modulate(doc(&program, 256)).unwrap()).collect();
        sender.send_batch(&batch).unwrap();
        for expected in 1..=5 {
            let outcome = receiver.next_outcome().unwrap();
            assert_eq!(outcome.seq, expected, "batch preserves per-session order");
            assert_eq!(outcome.ret, Some(Value::Int(1)));
        }
        sender.heartbeat().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while sender.acked() < 5 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(sender.acked(), 5, "the whole batch is acknowledged");
        let snap = receiver.handler().obs().registry().snapshot();
        assert_eq!(snap.counter_sum("envelope_batches_total"), 1);
        assert_eq!(snap.counter_sum("batched_events_total"), 5);
        sender.shutdown().unwrap();
        assert_eq!(receiver.join().unwrap(), 5);
    }

    #[test]
    fn mid_batch_reconnect_recovers_batch_acks_without_duplication() {
        let program = Arc::new(parse_program(SRC).unwrap());
        // The receiver kills the first connection after two events — i.e.
        // in the middle of the five-event batch, before the coalesced
        // BatchAck for the partial prefix was ever written.
        let receiver = TcpReceiver::bind_faulty(
            Arc::clone(&program),
            "index",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Never,
            2,
        )
        .unwrap();
        let acked = Arc::new(AtomicU64::new(0));
        let mut first = TcpSender::connect_with(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
            Arc::clone(&acked),
            0,
        )
        .unwrap();
        let batch: Vec<(ModulatedEvent, u64)> =
            (0..5).map(|_| first.modulate(doc(&program, 256)).unwrap()).collect();
        first.send_batch(&batch).unwrap();
        // The first two members apply before the connection dies; their
        // piggy-backed acks die with it.
        for expected in 1..=2 {
            assert_eq!(receiver.next_outcome().unwrap().seq, expected);
        }
        first.conn.abandon();
        assert_eq!(acked.load(Ordering::Acquire), 0, "mid-batch acks were lost with the link");

        // A supervisor-style reconnect replays the whole unacked batch.
        // The applied prefix must dedup (acked, not re-applied) and the
        // tail must apply; the fresh BatchAck covers every member.
        let mut second = TcpSender::connect_with(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
            Arc::clone(&acked),
            5,
        )
        .unwrap();
        second.send_batch(&batch).unwrap();
        second.publish(doc(&program, 256)).unwrap();
        for expected in 3..=6 {
            assert_eq!(receiver.next_outcome().unwrap().seq, expected);
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while second.acked() < 6 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(second.acked(), 6, "replayed batch and fresh event fully acknowledged");
        assert_eq!(receiver.demod_errors(), 0);
        second.shutdown().unwrap();
        assert_eq!(receiver.join().unwrap(), 6, "each batch member applied exactly once");
    }

    #[test]
    fn panicking_demodulator_is_quarantined_not_fatal() {
        let program = Arc::new(parse_program(SRC).unwrap());
        // A receiver-side native that panics on the third event: the
        // isolation boundary must fail only that envelope, dead-letter it,
        // and keep the accept loop serving.
        let mut builtins = BuiltinRegistry::new();
        let seen = Arc::new(AtomicU64::new(0));
        let seen_native = Arc::clone(&seen);
        builtins.register_native("store", 3, move |_, _| {
            if seen_native.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                panic!("injected store panic");
            }
            Ok(Value::Null)
        });
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "index",
            Arc::new(DataSizeModel::new()),
            builtins,
            TriggerPolicy::Never,
        )
        .unwrap();
        let mut sender = TcpSender::connect(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
        )
        .unwrap();
        for _ in 0..5 {
            sender.publish(doc(&program, 256)).unwrap();
        }
        // Four outcomes: the panicked envelope was quarantined, the rest
        // applied in order.
        let applied: Vec<u64> = (0..4).map(|_| receiver.next_outcome().unwrap().seq).collect();
        assert_eq!(applied, vec![1, 2, 4, 5]);
        sender.heartbeat().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while sender.acked() < 5 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(sender.acked(), 5, "the watermark advanced past the quarantined envelope");
        assert_eq!(receiver.demod_errors(), 1);
        let letters = receiver.dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].seq, 3);
        assert_eq!(letters[0].kind, mpart::failure::FailureKind::Panic);
        let snap = receiver.handler().obs().registry().snapshot();
        assert_eq!(snap.counter_sum("handler_panics_total"), 1);
        assert_eq!(snap.counter_sum("quarantined_total"), 1);
        sender.shutdown().unwrap();
        assert_eq!(receiver.join().unwrap(), 4);
    }

    fn bind_index(program: &Arc<Program>, builtins: BuiltinRegistry) -> TcpReceiver {
        TcpReceiver::bind(
            Arc::clone(program),
            "index",
            Arc::new(DataSizeModel::new()),
            builtins,
            TriggerPolicy::Never,
        )
        .unwrap()
    }

    /// Encoded `Event` frames for seqs `1..=n`, each carrying a small `Doc`.
    fn event_frames(program: &Arc<Program>, receiver: &TcpReceiver, n: u64) -> Vec<u8> {
        let source = Source::new(
            Arc::clone(program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
        );
        let mut wire = Vec::new();
        for seq in 1..=n {
            let (run, _) = source.modulate(doc(program, 4)).unwrap();
            let event = ModulatedEvent { seq, continuation: run.message, samples: run.samples };
            wire.extend(Frame::Event { event, t_mod_nanos: 0 }.encode());
        }
        wire
    }

    /// The watermark of an `Ack` frame; panics on any other kind.
    fn ack_of(frame: &Frame) -> u64 {
        match frame {
            Frame::Ack { ack } => *ack,
            other => panic!("expected an Ack, got {other:?}"),
        }
    }

    #[test]
    fn holds_frame_needs_a_whole_frame_of_legal_length() {
        let ack = Frame::Ack { ack: 7 }.encode();
        assert!(!holds_frame(&[]));
        assert!(!holds_frame(&ack[..FRAME_HEADER_BYTES - 1]), "partial header");
        assert!(!holds_frame(&ack[..ack.len() - 1]), "partial body");
        assert!(holds_frame(&ack), "exact frame boundary");
        let two = [ack.as_slice(), ack.as_slice()].concat();
        assert!(holds_frame(&two), "two frames");
        assert!(holds_frame(&two[..ack.len() + 3]), "a whole frame, then part of the next");
        let mut huge = vec![0u8; FRAME_HEADER_BYTES + MAX_FRAME_SIZE + 1];
        huge[1..5].copy_from_slice(&(MAX_FRAME_SIZE as u32 + 1).to_be_bytes());
        assert!(!holds_frame(&huge), "an oversized length never counts as whole");
    }

    #[test]
    fn pipelined_events_get_every_ack_in_order() {
        const N: u64 = 200;
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = bind_index(&program, receiver_builtins());
        let wire = event_frames(&program, &receiver, N);
        assert!(wire.len() > 2 * 8192, "the frames span several read buffers");
        let mut client = TcpStream::connect(("127.0.0.1", receiver.port())).unwrap();
        client.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        client.write_all(&wire).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let acks: Vec<u64> =
            (0..N).map(|_| ack_of(&Frame::read_from(&mut reader).unwrap())).collect();
        assert_eq!(acks, (1..=N).collect::<Vec<_>>(), "one Ack per Event, watermarks 1..=N");
        client.write_all(&Frame::Shutdown.encode()).unwrap();
        assert!(Frame::read_from(&mut reader).is_err(), "nothing follows the N acks");
        assert_eq!(receiver.join().unwrap(), N);
    }

    #[test]
    fn a_lone_frame_is_acked_without_a_second() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = bind_index(&program, receiver_builtins());
        let mut client = TcpStream::connect(("127.0.0.1", receiver.port())).unwrap();
        client.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        client.write_all(&event_frames(&program, &receiver, 1)).unwrap();
        assert_eq!(ack_of(&Frame::read_from(&mut client).unwrap()), 1);
        client.write_all(&Frame::Shutdown.encode()).unwrap();
        assert_eq!(receiver.join().unwrap(), 1);
    }

    #[test]
    fn a_slow_receiver_never_stalls_the_watermark() {
        // A handler far slower than the wire fills the receiver's read
        // buffer with small frames. Holding their acks until the buffer
        // ran dry would stall the watermark past the default 250 ms and
        // make the supervisor reconnect.
        const N: u64 = 120;
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("store", 1, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(Value::Null)
        });
        let receiver = bind_index(&program, builtins);
        let mut supervisor = crate::supervisor::Supervisor::new(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
            crate::supervisor::RetryPolicy::default(),
        );
        for _ in 0..N {
            supervisor.publish(doc(&program, 4)).unwrap();
        }
        supervisor.await_drain(std::time::Duration::from_secs(30)).unwrap();
        assert_eq!(supervisor.reconnects(), 0, "the watermark never stalled");
        assert_eq!(supervisor.acked(), N);
        supervisor.shutdown(std::time::Duration::from_secs(30)).unwrap();
        assert_eq!(receiver.demod_errors(), 0);
        assert_eq!(receiver.join().unwrap(), N, "each envelope applied exactly once");
    }

    #[test]
    fn successive_connections_are_accepted_and_deduplicated() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "index",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .unwrap();
        let acked = Arc::new(AtomicU64::new(0));

        // First connection sends seqs 1..=3, then vanishes without the
        // shutdown handshake.
        let mut first = TcpSender::connect_with(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
            Arc::clone(&acked),
            0,
        )
        .unwrap();
        let mut events = Vec::new();
        for _ in 0..3 {
            let (event, t) = first.modulate(|_| Ok(vec![Value::Int(9)])).unwrap();
            first.send_event(&event, t).unwrap();
            events.push((event, t));
        }
        for _ in 0..3 {
            receiver.next_outcome().unwrap();
        }
        first.conn.abandon();

        // Second connection re-sends 2..=3 (as a supervisor replaying an
        // unacked window would) plus a fresh seq 4.
        let mut second = TcpSender::connect_with(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            BuiltinRegistry::new(),
            receiver.port(),
            Arc::clone(&acked),
            3,
        )
        .unwrap();
        for (event, t) in &events[1..] {
            second.send_event(event, *t).unwrap();
        }
        second.publish(|_| Ok(vec![Value::Int(9)])).unwrap();
        // Only the fresh event produces an outcome; duplicates are acked
        // but not re-applied.
        let outcome = receiver.next_outcome().unwrap();
        assert_eq!(outcome.seq, 4);

        second.heartbeat().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while second.acked() < 4 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(second.acked(), 4);
        second.shutdown().unwrap();
        assert_eq!(receiver.join().unwrap(), 4, "each event applied exactly once");
    }
}
