//! Supervised sending: reconnection with capped exponential backoff and
//! seeded jitter, plus retransmission of the unacknowledged event window.
//!
//! A bare [`TcpSender`](crate::tcp::TcpSender) is one connection: if it
//! dies, in-flight events die with it. The [`Supervisor`] is the socket
//! driver of the link machine's [`SenderHalf`]: the machine assigns
//! sequence numbers, keeps every modulated event in its window until the
//! receiver acknowledges it (acks ride on plan frames, standalone `Ack`
//! frames, `BatchAck` frames, and heartbeat echoes), coalesces up to K
//! envelopes per frame ([`Supervisor::with_batching`]), and decides when
//! the watermark has stalled; the supervisor owns what the machine must
//! not — the sockets, the wall clock, the sleeps. When a connection is
//! declared dead it redials — backing off exponentially with jitter up to
//! a cap — and writes the machine's replay of the window onto the fresh
//! connection. The receiver deduplicates by sequence number, so the
//! combination yields exactly-once application over an at-least-once wire.
//!
//! Sends are zero-copy end to end: each frame is encoded into
//! scatter-gather segments (large continuation payloads stay refcounted
//! borrows of the marshalled buffer — see
//! [`EncodedFrame`](crate::envelope::EncodedFrame) and WIRE.md) and a
//! batch flush gathers *all* member segments into a single vectored
//! write. The window holds modulated events, whose payload handles are
//! refcounts into the same immutable buffers, so replaying the window
//! after a reconnect re-encodes without copying payload bytes either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpart::PartitionedHandler;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::Counter;
use rand::prelude::*;

use crate::link::{SenderHalf, Tick};
use crate::tcp::{Connection, Source};

/// Reconnection policy: capped exponential backoff with seeded jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay before the first reconnection attempt.
    pub base_delay: Duration,
    /// Ceiling on the backoff delay.
    pub max_delay: Duration,
    /// Attempts per reconnection before giving up (the error budget; when
    /// exhausted, callers degrade to local execution).
    pub max_attempts: u32,
    /// Seed for the jitter PRNG, so runs are reproducible.
    pub jitter_seed: u64,
    /// How long the acknowledgement watermark may stall before the
    /// connection is declared dead. A [`TcpReceiver`](crate::TcpReceiver)
    /// may hold a reply while more frames wait in its read buffer, for up
    /// to 1 ms plus one frame's handling, so keep this well above both.
    pub stall_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            max_attempts: 8,
            jitter_seed: 0x5EED_1E55,
            stall_timeout: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// Derives a per-instance policy by mixing `nonce` into the jitter
    /// seed (splitmix64 finalizer). N supervisors built from one shared
    /// policy — the thundering-herd case: N sessions all retrying the
    /// same dead node — would otherwise draw *identical* jitter streams
    /// and redial in lockstep. [`Supervisor::new`] applies this with a
    /// process-unique nonce automatically; runs stay reproducible for a
    /// fixed seed and construction order because the nonce is a counter,
    /// not a clock.
    pub fn spread(mut self, nonce: u64) -> RetryPolicy {
        let mut z = self.jitter_seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.jitter_seed = z ^ (z >> 31);
        self
    }

    /// The backoff delay before attempt `attempt` (0-based): `base ·
    /// 2^attempt` capped at `max_delay`, plus up to 50% jitter. Shared
    /// with the node client (`crate::node`), which redials with the same
    /// curve.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let jitter_nanos = exp.as_nanos() as u64 / 2;
        exp + Duration::from_nanos(if jitter_nanos > 0 {
            rng.random_range(0..=jitter_nanos)
        } else {
            0
        })
    }
}

/// How often [`Supervisor::await_drain`] looks at the watermark and
/// probes the receiver.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// How often a [`Supervisor::publish`] blocked on a full window looks at
/// the watermark: acks arrive continuously, and a whole drain poll would
/// idle the link for dozens of envelopes.
const WINDOW_POLL: Duration = Duration::from_micros(50);

/// How far [`Supervisor::publish`] may run ahead of acknowledgements, in
/// continuation bytes on the wire. Without a bound the window grows as
/// far as the kernel's socket buffers let writes through, so the sender's
/// memory follows their autotuning rather than the receiver's pace. The
/// wait writes nothing — no early flush of a partial batch, no probe —
/// so the frames a run puts on the wire do not depend on how fast acks
/// come back; a stalled watermark still reconnects and replays.
const MAX_UNACKED_BYTES: usize = 1 << 20;

/// A supervised sender: drives the link machine's sender half over
/// successive connections to one receiver port.
pub struct Supervisor {
    source: Source,
    port: u16,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Connection>,
    /// Sequence numbers, the unacked window, batching, stall detection.
    link: SenderHalf,
    /// Highest contiguous seq acknowledged; shared with every connection's
    /// control-reading thread so the watermark survives reconnects, and
    /// folded into the machine before each decision.
    acked: Arc<AtomicU64>,
    /// Zero of the machine's clock.
    started: Instant,
    /// `reconnects_total` on the handler's metrics registry.
    reconnects: Counter,
    /// `heartbeats_total`: liveness probes sent while draining.
    heartbeats_metric: Counter,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("port", &self.port)
            .field("seq", &self.link.seq())
            .field("unacked", &self.link.in_flight())
            .field("reconnects", &self.reconnects.get())
            .finish()
    }
}

impl Supervisor {
    /// Creates a supervisor for `port`; the first connection is dialed
    /// lazily on the first publish.
    pub fn new(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
        port: u16,
        policy: RetryPolicy,
    ) -> Self {
        // Each supervisor jitters from its own stream (see
        // `RetryPolicy::spread`): without this, every session sharing the
        // default policy would back off in lockstep after a node death.
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let policy = policy.spread(INSTANCE.fetch_add(1, Ordering::Relaxed));
        let rng = StdRng::seed_from_u64(policy.jitter_seed);
        let registry = handler.obs().registry();
        let link = SenderHalf::new(registry, policy.stall_timeout.as_nanos() as u64);
        let reconnects = registry.counter("reconnects_total", &[]);
        let heartbeats_metric = registry.counter("heartbeats_total", &[]);
        Supervisor {
            source: Source::new(program, handler, sender_builtins),
            port,
            policy,
            rng,
            conn: None,
            link,
            acked: Arc::new(AtomicU64::new(0)),
            started: Instant::now(),
            reconnects,
            heartbeats_metric,
        }
    }

    /// Coalesces up to `max` continuation envelopes into one wire frame,
    /// flushing a partial batch once `deadline` has passed since its
    /// oldest envelope (and always before draining). One frame means one
    /// header, one checksum, and one loss event for the whole batch; the
    /// receiver demodulates the envelopes in frame order and acks the
    /// contiguous watermark, so ordering, deduplication, and replay after
    /// reconnect behave exactly like the unbatched wire.
    pub fn with_batching(mut self, max: usize, deadline: Duration) -> Self {
        self.link.set_batching(max, deadline.as_nanos() as u64);
        self
    }

    /// Times the connection has been re-dialed (0 while the first one
    /// lives).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Highest contiguous seq the receiver has acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Events modulated but not yet acknowledged (as of the last publish
    /// or drain step).
    pub fn unacked(&self) -> usize {
        self.link.in_flight()
    }

    /// Highest seq assigned so far.
    pub fn seq(&self) -> u64 {
        self.link.seq()
    }

    /// The per-instance jitter seed actually in effect (the configured
    /// seed mixed with this supervisor's instance nonce).
    pub fn jitter_seed(&self) -> u64 {
        self.policy.jitter_seed
    }

    /// The machine's clock: nanoseconds since this supervisor was built.
    fn now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Dials the receiver, backing off per the policy, and writes the
    /// machine's replay of the unacked window on success.
    ///
    /// # Errors
    ///
    /// Returns the last connect error once `max_attempts` is exhausted —
    /// the caller's cue to degrade.
    fn reconnect_and_replay(&mut self) -> Result<(), IrError> {
        if let Some(old) = self.conn.take() {
            old.abandon();
            self.reconnects.inc();
        }
        let mut last_err = IrError::Marshal("no reconnect attempts allowed".into());
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt - 1, &mut self.rng));
            }
            match Connection::dial(&self.source.handler, self.port, Arc::clone(&self.acked)) {
                Ok(mut conn) => {
                    let now = self.now();
                    self.link.on_ack(self.acked(), now);
                    for frame in self.link.replay(now) {
                        conn.send(&frame)?;
                    }
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(IrError::Marshal(format!(
            "link down: reconnect failed after {} attempts ({last_err})",
            self.policy.max_attempts.max(1)
        )))
    }

    /// The live connection, dialing one first if there is none.
    fn connected(&mut self) -> Result<&mut Connection, IrError> {
        if self.conn.is_none() {
            self.reconnect_and_replay()?;
        }
        self.conn.as_mut().ok_or_else(|| IrError::Marshal("link down: no connection".into()))
    }

    /// Modulates and publishes one event with at-least-once delivery: the
    /// event enters the machine's window before anything is written, and a
    /// failed write triggers reconnect-and-replay. With batching enabled
    /// the envelope may be held back until the batch fills or the flush
    /// deadline expires; held envelopes are still in the window, so a
    /// reconnect replays them and [`await_drain`](Self::await_drain)
    /// flushes them.
    ///
    /// # Errors
    ///
    /// Propagates modulator errors; returns the reconnect error once the
    /// retry budget is exhausted (the event stays in the window and is
    /// replayed by the next successful reconnect).
    pub fn publish(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(), IrError> {
        self.connected()?;
        let (run, t_mod_nanos) = self.source.modulate(make_event)?;
        let now = self.now();
        self.link.on_ack(self.acked(), now);
        self.link.send(run.message, run.samples, t_mod_nanos, now);
        if self.link.flush_due(now) {
            self.flush(now)?;
        }
        if self.link.unacked_wire_bytes() > MAX_UNACKED_BYTES {
            self.wait_for_window(MAX_UNACKED_BYTES, None)?;
        }
        Ok(())
    }

    /// Writes the machine's not-yet-sent batch tail, if any.
    fn flush(&mut self, now: u64) -> Result<(), IrError> {
        let Some(frame) = self.link.flush(now) else {
            return Ok(());
        };
        if self.connected()?.send(&frame).is_err() {
            self.reconnect_and_replay()?;
        }
        Ok(())
    }

    /// Blocks until the receiver has acknowledged everything sent so far,
    /// heartbeating to solicit acks and — whenever the machine reports
    /// the watermark stalled for `stall_timeout`, or a probe cannot be
    /// written — declaring the connection dead, reconnecting and
    /// replaying.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if `deadline` elapses first, or
    /// the reconnect error once the retry budget is exhausted.
    pub fn await_drain(&mut self, deadline: Duration) -> Result<(), IrError> {
        // A partially-filled batch never outlives the drain.
        self.flush(self.now())?;
        self.wait_for_window(0, Some(deadline))
    }

    /// Blocks until at most `max_bytes` of continuations on the wire
    /// await acknowledgement (see [`await_drain`](Self::await_drain) for
    /// the liveness rules); `deadline`, if any, bounds the wait. Only a
    /// full drain (`max_bytes == 0`) probes the receiver.
    fn wait_for_window(
        &mut self,
        max_bytes: usize,
        deadline: Option<Duration>,
    ) -> Result<(), IrError> {
        let draining = max_bytes == 0;
        let poll = if draining { DRAIN_POLL } else { WINDOW_POLL };
        let start = Instant::now();
        loop {
            let now = self.now();
            self.link.on_ack(self.acked(), now);
            if self.link.unacked_wire_bytes() <= max_bytes {
                return Ok(());
            }
            if deadline.is_some_and(|d| start.elapsed() > d) {
                return Err(IrError::Continuation(format!(
                    "drain deadline: acked {} of {}",
                    self.acked(),
                    self.link.seq()
                )));
            }
            let dead = match self.link.tick(now) {
                Tick::Idle => false,
                Tick::Stalled => true,
                Tick::Probe(_) if !draining => false,
                Tick::Probe(probe) => {
                    self.heartbeats_metric.inc();
                    self.connected()?.send(&probe).is_err()
                }
            };
            if dead {
                self.reconnect_and_replay()?;
            }
            // Never sleep past the moment the machine's verdict can change.
            let nap = self
                .link
                .next_deadline()
                .map_or(poll, |at| Duration::from_nanos(at.saturating_sub(now)).min(poll));
            std::thread::sleep(nap);
        }
    }

    /// Drains the window, sends the shutdown handshake, and closes.
    ///
    /// # Errors
    ///
    /// Propagates drain and socket errors.
    pub fn shutdown(mut self, drain_deadline: Duration) -> Result<(), IrError> {
        self.await_drain(drain_deadline)?;
        match self.conn.take() {
            Some(conn) => conn.shutdown(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpReceiver;
    use mpart::profile::TriggerPolicy;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
        fn tally(x) {
            y = x * 2
            native store(y)
            return y
        }
    "#;

    fn receiver_builtins() -> mpart_ir::interp::BuiltinRegistry {
        let mut b = mpart_ir::interp::BuiltinRegistry::new();
        b.register_native("store", 1, |_, _| Ok(Value::Null));
        b
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let delays: Vec<Duration> = (0..8).map(|a| policy.delay(a, &mut rng)).collect();
        // Jitter adds at most 50%, so bounds are deterministic.
        for (attempt, d) in delays.iter().enumerate() {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(6))
                .min(Duration::from_millis(80));
            assert!(*d >= exp, "attempt {attempt}: {d:?} below {exp:?}");
            assert!(*d <= exp * 3 / 2, "attempt {attempt}: {d:?} above cap+jitter");
        }
        // Deterministic for a fixed seed.
        let mut rng2 = StdRng::seed_from_u64(1);
        let replay: Vec<Duration> = (0..8).map(|a| policy.delay(a, &mut rng2)).collect();
        assert_eq!(delays, replay);
    }

    #[test]
    fn reconnect_jitter_is_spread_across_instances() {
        // Two policies spread with different nonces draw different delay
        // sequences — N sessions retrying one dead node don't redial in
        // lockstep.
        let policy = RetryPolicy::default();
        let a = policy.clone().spread(0);
        let b = policy.clone().spread(1);
        assert_ne!(a.jitter_seed, b.jitter_seed);
        let mut rng_a = StdRng::seed_from_u64(a.jitter_seed);
        let mut rng_b = StdRng::seed_from_u64(b.jitter_seed);
        let delays_a: Vec<Duration> = (0..6).map(|i| a.delay(i, &mut rng_a)).collect();
        let delays_b: Vec<Duration> = (0..6).map(|i| b.delay(i, &mut rng_b)).collect();
        assert_ne!(delays_a, delays_b, "retry schedules are spread, not lockstep");
        // The spread itself is deterministic: same seed + nonce, same
        // stream — chaos runs stay reproducible.
        assert_eq!(a.jitter_seed, policy.clone().spread(0).jitter_seed);

        // Supervisors pick distinct nonces automatically even when built
        // from one shared policy.
        let program = Arc::new(parse_program(SRC).unwrap());
        let handler = mpart::PartitionedHandler::analyze(
            Arc::clone(&program),
            "tally",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let make = |h: &Arc<mpart::PartitionedHandler>| {
            Supervisor::new(
                Arc::clone(&program),
                Arc::clone(h),
                mpart_ir::interp::BuiltinRegistry::new(),
                1,
                RetryPolicy::default(),
            )
        };
        let s1 = make(&handler);
        let s2 = make(&handler);
        assert_ne!(s1.jitter_seed(), s2.jitter_seed());
    }

    #[test]
    fn survives_forced_mid_stream_disconnect() {
        let program = Arc::new(parse_program(SRC).unwrap());
        // The receiver kills the first connection after 3 events; the
        // supervisor must reconnect and replay so that all 10 events are
        // applied exactly once.
        let receiver = TcpReceiver::bind_faulty(
            Arc::clone(&program),
            "tally",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Never,
            3,
        )
        .unwrap();
        let mut supervisor = Supervisor::new(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            mpart_ir::interp::BuiltinRegistry::new(),
            receiver.port(),
            RetryPolicy { stall_timeout: Duration::from_millis(100), ..RetryPolicy::default() },
        );
        for i in 0..10 {
            // Sends may land in a dead socket's buffer; the window +
            // drain below recover them.
            let _ = supervisor.publish(move |_| Ok(vec![Value::Int(i)]));
        }
        supervisor.await_drain(Duration::from_secs(30)).unwrap();
        assert!(supervisor.reconnects() >= 1, "the fault actually fired");
        assert_eq!(supervisor.acked(), 10);
        assert_eq!(supervisor.unacked(), 0);
        supervisor.shutdown(Duration::from_secs(5)).unwrap();
        assert_eq!(receiver.join().unwrap(), 10, "exactly-once application");
    }

    #[test]
    fn batched_publishes_coalesce_and_drain_exactly_once() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "tally",
            Arc::new(DataSizeModel::new()),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .unwrap();
        let mut supervisor = Supervisor::new(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            mpart_ir::interp::BuiltinRegistry::new(),
            receiver.port(),
            RetryPolicy::default(),
        )
        .with_batching(4, Duration::from_secs(10));
        for i in 0..10 {
            supervisor.publish(move |_| Ok(vec![Value::Int(i)])).unwrap();
        }
        // Two full batches went out; the last two envelopes are still
        // pending, held back by the generous deadline (earlier ones may
        // or may not be acked yet, so only a lower bound is stable here).
        assert!(supervisor.unacked() >= 2);
        assert!(supervisor.acked() <= 8);
        supervisor.await_drain(Duration::from_secs(30)).unwrap();
        assert_eq!(supervisor.acked(), 10);
        assert_eq!(supervisor.unacked(), 0);
        // The receiver saw three multi-event frames: 4 + 4 + 2.
        let snap = receiver.handler().obs().registry().snapshot();
        assert_eq!(snap.counter_sum("envelope_batches_total"), 3);
        assert_eq!(snap.counter_sum("batched_events_total"), 10);
        supervisor.shutdown(Duration::from_secs(5)).unwrap();
        assert_eq!(receiver.join().unwrap(), 10, "exactly-once application");
    }

    const BLOB_SRC: &str = r#"
        fn keep(blob) {
            n = len blob
            native store(blob)
            return n
        }
    "#;

    fn blob(bytes: usize) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> {
        move |ctx| {
            let data = mpart_ir::heap::ArrayData::Byte(vec![7; bytes]);
            Ok(vec![Value::Ref(ctx.heap.alloc_array_from(data))])
        }
    }

    #[test]
    fn slow_receiver_bounds_the_window_in_bytes() {
        let program = Arc::new(parse_program(BLOB_SRC).unwrap());
        // Each application takes 2 ms, far slower than modulation.
        let mut builtins = mpart_ir::interp::BuiltinRegistry::new();
        builtins.register_native("store", 1, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(Value::Null)
        });
        let receiver = TcpReceiver::bind(
            Arc::clone(&program),
            "keep",
            Arc::new(DataSizeModel::new()),
            builtins,
            TriggerPolicy::Never,
        )
        .unwrap();
        let mut supervisor = Supervisor::new(
            Arc::clone(&program),
            Arc::clone(receiver.handler()),
            mpart_ir::interp::BuiltinRegistry::new(),
            receiver.port(),
            RetryPolicy { stall_timeout: Duration::from_secs(5), ..RetryPolicy::default() },
        );
        let (mut largest, mut envelope) = (0, 0);
        for _ in 0..80 {
            let before = supervisor.link.in_flight_bytes();
            supervisor.publish(blob(64 << 10)).unwrap();
            let after = supervisor.link.in_flight_bytes();
            envelope = envelope.max(after.saturating_sub(before));
            largest = largest.max(after);
        }
        assert!(envelope > 64 << 10, "one envelope carries the blob: {envelope}");
        assert!(largest <= MAX_UNACKED_BYTES + envelope, "window reached {largest} bytes");
        assert!(largest > MAX_UNACKED_BYTES / 2, "the receiver was the bottleneck: {largest}");
        supervisor.shutdown(Duration::from_secs(30)).unwrap();
        assert_eq!(receiver.join().unwrap(), 80, "exactly-once application");
    }

    #[test]
    fn dead_peer_fails_a_blocked_publish() {
        let program = Arc::new(parse_program(BLOB_SRC).unwrap());
        let handler = mpart::PartitionedHandler::analyze(
            Arc::clone(&program),
            "keep",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        // A peer that reads everything, acknowledges nothing, and stops
        // listening after its first connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            drop(listener);
            let _ = std::io::copy(&mut conn, &mut std::io::sink());
        });
        let mut supervisor = Supervisor::new(
            Arc::clone(&program),
            handler,
            mpart_ir::interp::BuiltinRegistry::new(),
            port,
            RetryPolicy {
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                max_attempts: 3,
                stall_timeout: Duration::from_millis(100),
                ..RetryPolicy::default()
            },
        );
        let err = (0..64)
            .find_map(|_| supervisor.publish(blob(64 << 10)).err())
            .expect("the window fills and the dead peer fails the wait");
        assert!(matches!(&err, IrError::Marshal(m) if m.contains("link down")), "{err:?}");
        drop(supervisor);
        peer.join().unwrap();
    }

    #[test]
    fn exhausted_retry_budget_reports_link_down() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let handler = mpart::PartitionedHandler::analyze(
            Arc::clone(&program),
            "tally",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        // Nobody is listening on this port (bind-then-drop reserves one).
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut supervisor = Supervisor::new(
            Arc::clone(&program),
            handler,
            mpart_ir::interp::BuiltinRegistry::new(),
            port,
            RetryPolicy {
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                max_attempts: 3,
                ..RetryPolicy::default()
            },
        );
        let err = supervisor.publish(|_| Ok(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, IrError::Marshal(m) if m.contains("link down")));
    }
}
