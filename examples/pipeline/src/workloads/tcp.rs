//! `tcp_small` and `tcp_bulk`: `Supervisor` → loopback socket →
//! `TcpReceiver`, one generator thread, one connection.

use std::sync::Arc;
use std::time::{Duration, Instant};

use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::jecho::{RetryPolicy, Supervisor, TcpReceiver};

use super::{err, Census, Rep, Res, Tenths};
use crate::fixture::Fixture;
use crate::relay::{Framing, Relay};
use crate::spec::Sizes;
use crate::trace::{Tracer, NO_ENVELOPE};

/// A partial batch is flushed by `await_drain`, never by this deadline: the
/// phases send whole frames, and a deadline flush would make frame counts
/// depend on scheduling.
const BATCH_DEADLINE: Duration = Duration::from_secs(3600);
const DRAIN_DEADLINE: Duration = Duration::from_secs(60);
/// The pipelined phase keeps at most this many envelopes unacknowledged,
/// as a producer with backpressure does. `Supervisor` itself has no flow
/// control: unbounded, the backlog sits in its window and the socket
/// buffers, and on two cores the rate then flips between a mode where the
/// receiver keeps up and one where it never blocks (130k vs 220k
/// envelopes/s from one repetition to the next on the parent commit).
const WINDOW: u64 = 1024;
/// While the window is full the generator sleeps rather than spins, so it
/// does not take a core from the receiver and the ack reader.
const WINDOW_BACKOFF: Duration = Duration::from_micros(100);

struct Session {
    receiver: TcpReceiver,
    supervisor: Supervisor,
    /// Envelopes sent so far; envelope `i` travels as seq `i + 1`.
    sent: u64,
    mismatches: u64,
}

/// Analysis miss, compile, bind, and a lazily dialing supervisor on the
/// receiver's port, or on a counting relay in front of it.
fn open(fx: &Fixture, sizes: &Sizes, seed: u64, via_relay: bool) -> Res<(Session, Option<Relay>)> {
    let handler = fx.analyze().map_err(err("analysis"))?;
    let receiver = TcpReceiver::bind_with_handler(
        Arc::clone(&fx.program),
        Arc::clone(&handler),
        fx.receiver_builtins.clone(),
        TriggerPolicy::Never,
    )
    .map_err(err("bind"))?;
    let relay = if via_relay {
        Some(Relay::spawn(receiver.port(), Framing::Frames).map_err(err("relay"))?)
    } else {
        None
    };
    let port = relay.as_ref().map_or(receiver.port(), Relay::port);
    // A loaded box must not be mistaken for a dead peer: a spurious
    // reconnect would replay the window and change every count.
    let policy = RetryPolicy {
        jitter_seed: seed,
        stall_timeout: Duration::from_secs(30),
        ..RetryPolicy::default()
    };
    let supervisor =
        Supervisor::new(Arc::clone(&fx.program), handler, fx.sender_builtins.clone(), port, policy)
            .with_batching(sizes.batch, BATCH_DEADLINE);
    Ok((Session { receiver, supervisor, sent: 0, mismatches: 0 }, relay))
}

impl Session {
    /// One closed-loop wire frame: hand `batch` events in, then wait for
    /// their outcomes, checking each by value and sequence.
    fn closed_frame(&mut self, fx: &Fixture, batch: usize) -> Res<()> {
        let first = self.sent;
        for _ in 0..batch {
            self.supervisor.publish(fx.make_event(self.sent)).map_err(err("publish"))?;
            self.sent += 1;
        }
        for i in first..self.sent {
            let outcome = self.receiver.next_outcome().map_err(err("next_outcome"))?;
            if outcome.seq != i + 1 || !fx.matches(i, &outcome.ret) {
                self.mismatches += 1;
            }
        }
        Ok(())
    }

    /// Spins until the sender has seen the ack of everything sent, without
    /// `await_drain`'s heartbeats, so a census stays an exact count.
    fn wait_acked(&self) -> Res<()> {
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.supervisor.acked() < self.sent {
            if Instant::now() > deadline {
                return Err(format!("acked {} of {}", self.supervisor.acked(), self.sent));
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Shutdown handshake and join; returns envelopes not applied exactly
    /// once or applied wrongly.
    fn close(self) -> Res<u64> {
        let Session { receiver, supervisor, sent, mismatches } = self;
        let watermark_short = sent - supervisor.acked().min(sent);
        supervisor.shutdown(DRAIN_DEADLINE).map_err(err("shutdown"))?;
        let demod_errors = receiver.demod_errors();
        let applied = receiver.join().map_err(err("join"))?;
        Ok(mismatches + demod_errors + watermark_short + sent.abs_diff(applied))
    }
}

pub fn rep(
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    started: Instant,
    tracer: &mut Tracer,
) -> Res<Rep> {
    let batch = sizes.batch;
    let (mut s, _) = open(fx, sizes, seed, false)?;
    for _ in 0..sizes.warmup / batch as u64 {
        s.closed_frame(fx, batch)?;
    }
    let mut rep = Rep { setup_s: started.elapsed().as_secs_f64(), ..Rep::default() };

    // Closed loop first: the receiver's outcome channel is bounded and
    // drops when full, so value checks must precede the pipelined phase.
    // Spans cover the timed region only, so this phase is not traced.
    for _ in 0..sizes.latency_frames {
        let t = Instant::now();
        s.closed_frame(fx, batch)?;
        rep.latencies_ns.push(t.elapsed().as_nanos() as u64);
    }

    let timed = Instant::now();
    let mut tenths = Tenths::start(sizes.envelopes);
    for n in 0..sizes.envelopes {
        tenths.mark(n);
        let i = s.sent;
        if s.sent - s.supervisor.acked() >= WINDOW {
            let (supervisor, sent) = (&s.supervisor, s.sent);
            tracer.time("driver.window_wait", "", i, || {
                while sent - supervisor.acked() >= WINDOW {
                    std::thread::sleep(WINDOW_BACKOFF);
                }
            });
        }
        let supervisor = &mut s.supervisor;
        tracer
            .time("tcp.publish", "", i, || supervisor.publish(fx.make_event(i)))
            .map_err(err("publish"))?;
        s.sent += 1;
    }
    rep.late_over_early = tenths.finish();
    let supervisor = &mut s.supervisor;
    tracer
        .time("tcp.drain_wait", "", NO_ENVELOPE, || supervisor.await_drain(DRAIN_DEADLINE))
        .map_err(err("await_drain"))?;
    rep.timed_s = timed.elapsed().as_secs_f64();
    rep.timed_msgs = sizes.envelopes;

    let hub = Arc::clone(s.receiver.handler().obs());
    rep.attempted = s.sent;
    rep.failed = s.close()?;
    let snap = hub.registry().snapshot();
    rep.put("tcp.retransmissions", snap.counter_sum("retransmissions_total") as f64);
    rep.put("tcp.reconnects", snap.counter_sum("reconnects_total") as f64);
    rep.put("tcp.heartbeats", snap.counter_sum("heartbeats_total") as f64);
    rep.put("obs.trace_events_per_msg", hub.trace().recorded() as f64 / rep.attempted as f64);
    Ok(rep)
}

/// A short closed-loop session through the counting relay: the exact bytes
/// and frames per envelope, both directions, no heartbeats.
pub fn census(fx: &Fixture, sizes: &Sizes, seed: u64) -> Res<Census> {
    let (mut s, relay) = open(fx, sizes, seed, true)?;
    let relay = relay.expect("census opens through a relay");
    // The first frame dials the connection; count from after it.
    s.closed_frame(fx, sizes.batch)?;
    s.wait_acked()?;
    let before = relay.counts().snapshot();
    let frames = (sizes.latency_frames / 4).clamp(1, 256);
    for _ in 0..frames {
        s.closed_frame(fx, sizes.batch)?;
    }
    s.wait_acked()?;
    let after = relay.counts().snapshot();
    let failed = s.close()?;
    relay.shutdown();
    if failed != 0 {
        return Err(format!("census: {failed} envelopes failed"));
    }
    Ok(Census {
        msgs: frames * sizes.batch as u64,
        up_bytes: after.0 - before.0,
        up_units: after.1 - before.1,
        down_bytes: after.2 - before.2,
        down_units: after.3 - before.3,
    })
}
