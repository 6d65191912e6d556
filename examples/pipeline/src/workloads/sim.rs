//! `sim_batch` and `adapt_mixed`: the whole pipeline on one thread over the
//! simulated wire, and the virtual-time run behind `model_fps`.

use std::sync::Arc;
use std::time::Instant;

use method_partitioning::apps::image::{self, ImageOptions, ImageVersion};
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::jecho::{SimConfig, SimSession};
use method_partitioning::simnet::{FaultPlan, Host, Link, SimTime};

use super::{err, Rep, Res, Tenths};
use crate::fixture::{mixed_schedule, Fixture};
use crate::spec::Sizes;
use crate::trace::{Tracer, NO_ENVELOPE};

/// `sim_batch`: supervised sim wire under a benign, seeded `FaultPlan`
/// (which is what engages framing, batching and acknowledgement).
pub fn rep_supervised(
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    started: Instant,
    tracer: &mut Tracer,
) -> Res<Rep> {
    let handler = fx.analyze().map_err(err("analysis"))?;
    let config = SimConfig::new(
        Host::new("producer", 1_000_000.0),
        Link::new("lan", SimTime::from_millis(1), 1_000_000.0)
            .with_fault_plan(FaultPlan::new(seed)),
        Host::new("consumer", 1_000_000.0),
        TriggerPolicy::Never,
    )
    // Frames fill by count; the virtual-time flush deadline never fires.
    .with_batching(sizes.batch, SimTime::from_millis(3_600_000));
    let mut session = SimSession::adaptive_with_handler(
        Arc::clone(&fx.program),
        handler,
        fx.sender_builtins.clone(),
        fx.receiver_builtins.clone(),
        config,
    )
    .map_err(err("session"))?;

    let mut sent = 0u64;
    let mut wire_bytes = 0u64;
    let mut send = |session: &mut SimSession, tracer: &mut Tracer| -> Res<()> {
        let i = sent;
        let report = tracer
            .time("sim.deliver", "", i, || session.deliver(fx.make_event(i)))
            .map_err(err("deliver"))?;
        wire_bytes += report.wire_bytes as u64;
        sent += 1;
        Ok(())
    };
    let mut quiet = Tracer::new(false);
    for _ in 0..sizes.warmup {
        send(&mut session, &mut quiet)?;
    }
    let mut rep = Rep { setup_s: started.elapsed().as_secs_f64(), ..Rep::default() };

    for _ in 0..sizes.latency_frames {
        let t = Instant::now();
        for _ in 0..sizes.batch {
            send(&mut session, &mut quiet)?;
        }
        rep.latencies_ns.push(t.elapsed().as_nanos() as u64);
    }

    let timed = Instant::now();
    let mut tenths = Tenths::start(sizes.envelopes);
    for n in 0..sizes.envelopes {
        tenths.mark(n);
        send(&mut session, tracer)?;
    }
    rep.late_over_early = tenths.finish();
    let left =
        tracer.time("sim.drain", "", NO_ENVELOPE, || session.drain(100)).map_err(err("drain"))?;
    rep.timed_s = timed.elapsed().as_secs_f64();
    rep.timed_msgs = sizes.envelopes;

    // Exactly once, in order, with the reference result.
    let applied = session.applied_results();
    let wrong = applied
        .iter()
        .enumerate()
        .filter(|(n, (seq, ret))| **seq != *n as u64 + 1 || !fx.matches(*n as u64, ret))
        .count() as u64;
    rep.attempted = sent;
    rep.failed = wrong + sent.abs_diff(applied.len() as u64) + left as u64;
    rep.wire_bytes = wire_bytes;
    rep.wire_msgs = sent;
    let batches = session.envelope_batches();
    rep.put("sim.batches", batches as f64);
    rep.put(
        "sim.batch_fill",
        session.batched_events() as f64 / (batches.max(1) * sizes.batch as u64) as f64,
    );
    rep.put("sim.batch_member_acks", session.batch_member_acks() as f64);
    rep.put("sim.retransmissions", session.retransmissions() as f64);
    rep.put("obs.trace_events_per_msg", session.obs().trace().recorded() as f64 / sent as f64);
    Ok(rep)
}

/// `adapt_mixed`: the paper's image-streaming session, adaptive version,
/// on the Mixed schedule drawn from the seed, feedback after every frame.
pub fn rep_adaptive(
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    started: Instant,
    tracer: &mut Tracer,
) -> Res<Rep> {
    let mut session =
        image::image_session_with(ImageVersion::MethodPartitioning, ImageOptions::default())
            .map_err(err("image session"))?;
    session.handler().select_engine(Default::default());
    let schedule = mixed_schedule(sizes.session_length() as usize, seed);

    let mut rep = Rep::default();
    let mut quiet = Tracer::new(false);
    let mut wire_bytes = 0u64;
    let mut wrong = 0u64;
    let timed_from = sizes.warmup as usize;
    let mut timed = Instant::now();
    let mut tenths = Tenths::start(sizes.latency_frames);
    for (i, &which) in schedule.iter().enumerate() {
        if i == timed_from {
            rep.setup_s = started.elapsed().as_secs_f64();
            timed = Instant::now();
            tenths = Tenths::start(sizes.latency_frames);
        }
        let event = fx.events[which].clone();
        let program = Arc::clone(&fx.program);
        let t = Instant::now();
        if i >= timed_from {
            tenths.mark((i - timed_from) as u64);
        }
        let tracer = if i >= timed_from { &mut *tracer } else { &mut quiet };
        let report = tracer
            .time("sim.deliver", "", i as u64, || {
                session.deliver(move |ctx| event.build(&program, ctx))
            })
            .map_err(err("deliver"))?;
        if i >= timed_from {
            rep.latencies_ns.push(t.elapsed().as_nanos() as u64);
        }
        wire_bytes += report.wire_bytes as u64;
        if !report.delivered || report.seq != i as u64 + 1 || report.ret != fx.expected[which] {
            wrong += 1;
        }
    }
    rep.late_over_early = tenths.finish();
    rep.timed_s = timed.elapsed().as_secs_f64();
    rep.timed_msgs = sizes.latency_frames;
    rep.attempted = schedule.len() as u64;
    rep.failed = wrong + rep.attempted.abs_diff(session.reports().len() as u64);
    rep.wire_bytes = wire_bytes;
    rep.wire_msgs = rep.attempted;
    rep.model_fps = Some(session.fps());
    rep.put("reconfig.switches", session.plan_installs() as f64);
    rep.put("reconfig.feedbacks", session.reconfig().reconfigurations() as f64);
    rep.put(
        "obs.trace_events_per_msg",
        session.obs().trace().recorded() as f64 / rep.attempted as f64,
    );
    Ok(rep)
}

/// Frames of the virtual-time run behind `model_fps`.
pub const MODEL_FRAMES: u64 = 256;

/// `SimSession::fps()` of the fixture's handler and events on the paper's
/// testbed model (fast server, 802.11b link, handheld client), plan frozen.
pub fn model_run(fx: &Fixture) -> Res<f64> {
    let handler = fx.analyze().map_err(err("analysis"))?;
    let mut session = SimSession::adaptive_with_handler(
        Arc::clone(&fx.program),
        handler,
        fx.sender_builtins.clone(),
        fx.receiver_builtins.clone(),
        image::image_testbed(TriggerPolicy::Never),
    )
    .map_err(err("session"))?;
    for i in 0..MODEL_FRAMES {
        let report = session.deliver(fx.make_event(i)).map_err(err("deliver"))?;
        if !fx.matches(i, &report.ret) {
            return Err(format!("model run: envelope {i} returned {:?}", report.ret));
        }
    }
    Ok(session.fps())
}
