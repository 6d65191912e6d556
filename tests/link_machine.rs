//! Exhaustive checks of the sans-IO link machine (ROADMAP item E(ii),
//! second half): the two halves of [`link`] are driven directly — no
//! socket, no simulator, no clock — through **every** fault schedule up
//! to a small depth, not a seeded sample of them.
//!
//! One schedule assigns one of five fates — deliver, drop, duplicate,
//! reorder (swap with the previous arrival), corrupt — to each of the
//! first `DEPTH` frames the sender puts on the wire; every later frame is
//! delivered cleanly ("faults stop"). The space is the product of: batch
//! size K ∈ {1, 2, 3}; 1–4 envelopes; no poison envelope or any one of
//! them, with a retry budget of 1 or 2; acknowledgements folded from the
//! reply frames in order (the TCP driver's way) or handed back per
//! envelope out of band (the simulator's way); and the 5^DEPTH schedules.
//! Every run asserts
//!
//! * exactly-once application of every envelope that is not poison;
//! * a monotone watermark that is always the contiguous settled prefix;
//! * the poison envelope dead-lettered exactly once, and passed;
//! * the window empty within `budget + 1` rounds once faults stop;
//! * a retransmission counted only for an envelope that had been on the
//!   wire before — so a loss-free wire counts none, whatever K;
//! * at K = 1, data frames and acknowledgements byte-identical to the
//!   unbatched wire (`Frame::Event`, `Frame::Ack`).
//!
//! [`link`]: method_partitioning::jecho::link

use std::cell::RefCell;
use std::sync::Arc;

use method_partitioning::core::failure::DeadLetterRing;
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::core::reconfig::ReconfigUnit;
use method_partitioning::core::subscriber::{Subscriber, Timing};
use method_partitioning::core::PartitionedHandler;
use method_partitioning::cost::{CostModel, DataSizeModel};
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::{IrError, Program, Value};
use method_partitioning::jecho::link::{
    ack_watermark, Control, LinkMachine, Received, ReceiverHalf, SenderHalf, Verdict,
};
use method_partitioning::jecho::{Frame, ModulatedEvent, SimConfig, SimSession};
use method_partitioning::obs::{ObsHub, Registry};
use method_partitioning::simnet::{FaultPlan, Host, Link, SimTime};

const SRC: &str = r#"
    fn tally(x) {
        y = x * 2
        native store(y)
        return y
    }
"#;

/// Frames of a run whose fate the schedule decides; later ones deliver.
const DEPTH: u32 = 4;
const MAX_ENVELOPES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    Reorder,
    Corrupt,
}

const FATES: [Fate; 5] = [Fate::Deliver, Fate::Drop, Fate::Duplicate, Fate::Reorder, Fate::Corrupt];

/// The `index`-th schedule: its base-5 digits, least significant first.
fn schedule(index: u32) -> Vec<Fate> {
    (0..DEPTH).map(|digit| FATES[(index / 5u32.pow(digit)) as usize % 5]).collect()
}

#[derive(Debug, Clone, Copy)]
struct Config {
    batch: usize,
    envelopes: usize,
    /// The poison envelope's seq, and the receiver's retry budget.
    poison: Option<u64>,
    budget: u32,
    /// Fold acknowledgements from reply frames in order; otherwise hand
    /// every settled seq back out of band.
    acks_in_frames: bool,
}

struct Fixture {
    program: Arc<Program>,
    handler: Arc<PartitionedHandler>,
    /// Envelope `i` carries the value `i + 1`, pre-modulated once.
    events: Vec<ModulatedEvent>,
}

fn fixture() -> Fixture {
    let program = Arc::new(parse_program(SRC).unwrap());
    let model = Arc::new(DataSizeModel::new());
    let handler = PartitionedHandler::analyze(Arc::clone(&program), "tally", model).unwrap();
    let modulator = handler.modulator();
    let events = (1..=MAX_ENVELOPES as i64)
        .map(|value| {
            let mut ctx = ExecCtx::new(&program);
            let run = modulator.handle(&mut ctx, vec![Value::Int(value)]).unwrap();
            ModulatedEvent { seq: value as u64, continuation: run.message, samples: run.samples }
        })
        .collect();
    Fixture { program, handler, events }
}

/// Encodes `frames` and lets the schedule decide what arrives, in order.
fn transmit(frames: Vec<Frame>, fates: &mut impl Iterator<Item = Fate>) -> Vec<Vec<u8>> {
    let mut arrivals: Vec<Vec<u8>> = Vec::new();
    for frame in frames {
        let bytes = frame.try_encode().unwrap();
        match fates.next().unwrap_or(Fate::Deliver) {
            Fate::Deliver => arrivals.push(bytes),
            Fate::Drop => {}
            Fate::Duplicate => {
                arrivals.push(bytes.clone());
                arrivals.push(bytes);
            }
            Fate::Reorder => {
                arrivals.push(bytes);
                let n = arrivals.len();
                if n >= 2 {
                    arrivals.swap(n - 1, n - 2);
                }
            }
            Fate::Corrupt => {
                let mut damaged = bytes;
                let last = damaged.len() - 1;
                damaged[last] ^= 0x5A;
                arrivals.push(damaged);
            }
        }
    }
    arrivals
}

/// One run of one schedule; panics on any violated invariant.
fn run(fx: &Fixture, cfg: Config, schedule: &[Fate]) {
    let ctx_of = |what: &str| format!("{what} ({cfg:?}, {schedule:?})");
    let kind = fx.handler.model().kind();
    let unit = ReconfigUnit::new(Arc::clone(fx.handler.analysis()), kind, TriggerPolicy::Never);
    let mut subscriber = Subscriber::new(Arc::clone(&fx.handler), unit);
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("store", 1, |_, _| Ok(Value::Null));
    let mut ctx = ExecCtx::with_builtins(&fx.program, builtins);

    let mut sender = SenderHalf::new(&Registry::new(), u64::MAX);
    // The flush deadline only matters for a partial last batch.
    sender.set_batching(cfg.batch, 1_000);
    let deadletter = Arc::new(DeadLetterRing::new(8));
    let receiver = ReceiverHalf::new(Arc::new(ObsHub::new()), cfg.budget, Arc::clone(&deadletter));
    let mut link = LinkMachine { sender, receiver };

    let applied = RefCell::new(vec![0u32; cfg.envelopes + 1]);
    let mut settled = vec![false; cfg.envelopes + 2];
    let mut apply = |event: ModulatedEvent, _t_mod_nanos: u64| {
        if cfg.poison == Some(event.seq) {
            return Ok(Verdict::Failed(IrError::HandlerPanic("poison".into())));
        }
        let mod_work = event.continuation.mod_work;
        let step = subscriber.apply(&mut ctx, &event.continuation, event.samples, |demod| {
            Timing::work(mod_work, demod)
        });
        Ok(match step {
            Ok(step) => {
                assert_eq!(step.demod.ret, Some(Value::Int(2 * event.seq as i64)));
                applied.borrow_mut()[event.seq as usize] += 1;
                Verdict::Applied { plan: None }
            }
            Err(e) => Verdict::Failed(e),
        })
    };

    // Round 0: hand every envelope to the sender; full batches flush as
    // they fill, a partial last batch at its deadline.
    let mut now = 0u64;
    let mut frames = Vec::new();
    for event in &fx.events[..cfg.envelopes] {
        let parked = link.sender.send(event.continuation.clone(), event.samples.clone(), 7, now);
        assert_eq!(parked.seq, event.seq);
        if link.sender.flush_due(now) {
            frames.extend(link.sender.flush(now));
        }
        now += 1;
    }
    if !cfg.envelopes.is_multiple_of(cfg.batch) {
        assert!(!link.sender.flush_due(now), "{}", ctx_of("a partial batch waits"));
        now = link.sender.next_deadline().expect("a pending batch has a deadline");
        assert!(link.sender.flush_due(now), "{}", ctx_of("the deadline flushes it"));
        frames.extend(link.sender.flush(now));
    }
    assert_eq!(link.sender.flush(now).map(|_| ()), None, "nothing is left unsent");
    assert_eq!(link.sender.retransmissions(), 0, "first transmissions are not retransmissions");

    let mut fates = schedule.iter().copied();
    let mut out = Received::default();
    let mut watermark = 0u64;
    let mut transmitted = 0usize;
    let mut clean_rounds = 0u32;
    while link.sender.in_flight() > 0 {
        let faulty = transmitted < DEPTH as usize;
        transmitted += frames.len();
        if cfg.batch == 1 {
            for frame in &frames {
                let Frame::Event { event, .. } = frame else {
                    panic!("{}", ctx_of("K=1 puts only plain event frames on the wire"));
                };
                let unbatched = Frame::Event {
                    event: fx.events[event.seq as usize - 1].clone(),
                    t_mod_nanos: 7,
                };
                assert_eq!(frame.try_encode().unwrap(), unbatched.try_encode().unwrap());
            }
        }
        for bytes in transmit(std::mem::take(&mut frames), &mut fates) {
            let Ok((frame, used)) = Frame::decode_bytes(&bytes) else {
                continue; // the checksum caught the damage: a missing ack
            };
            assert_eq!(used, bytes.len());
            let control = link.receiver.on_frame(frame, &mut apply, &mut out).unwrap();
            assert_eq!(control, Control::Continue);
            for &seq in &out.settled {
                settled[seq as usize] = true;
            }
            // Monotone, and exactly the contiguous settled prefix.
            let next = link.receiver.watermark();
            assert!(next >= watermark, "{}", ctx_of("watermark went backwards"));
            watermark = next;
            assert!(settled[1..=watermark as usize].iter().all(|s| *s));
            assert!(!settled[watermark as usize + 1], "{}", ctx_of("watermark lags"));
            for reply in &out.replies {
                let ack = ack_watermark(reply).expect("replies carry a watermark");
                assert!(ack <= watermark);
                if cfg.batch == 1 {
                    assert_eq!(
                        reply.try_encode().unwrap(),
                        Frame::Ack { ack }.try_encode().unwrap(),
                        "{}",
                        ctx_of("K=1 acknowledges with plain ack frames")
                    );
                }
                if cfg.acks_in_frames {
                    link.sender.on_ack(ack, now);
                }
            }
            if !cfg.acks_in_frames {
                for &seq in &out.settled {
                    link.sender.settle(seq);
                }
            }
            assert!(applied.borrow().iter().all(|n| *n <= 1), "{}", ctx_of("applied twice"));
        }
        if !faulty {
            clean_rounds += 1;
            assert!(clean_rounds <= cfg.budget + 1, "{}", ctx_of("window not drained"));
        }
        if link.sender.in_flight() > 0 {
            now += 1;
            let before = link.sender.retransmissions();
            let outstanding = link.sender.in_flight() as u64;
            frames = link.sender.replay(now);
            assert_eq!(link.sender.retransmissions(), before + outstanding);
        }
    }

    for seq in 1..=cfg.envelopes as u64 {
        let expected = u32::from(cfg.poison != Some(seq));
        assert_eq!(applied.borrow()[seq as usize], expected, "{}", ctx_of("exactly once"));
    }
    assert_eq!(link.receiver.watermark(), cfg.envelopes as u64, "{}", ctx_of("poison passed"));
    let letters = deadletter.snapshot();
    assert_eq!(
        letters.len(),
        usize::from(cfg.poison.is_some()),
        "{}",
        ctx_of("dead-lettered once")
    );
    assert_eq!(deadletter.quarantined(), letters.len() as u64);
    if let (Some(poison), Some(letter)) = (cfg.poison, letters.first()) {
        assert_eq!((letter.seq, letter.failures), (poison, cfg.budget));
    }
    if schedule.iter().all(|f| *f == Fate::Deliver) && cfg.poison.is_none() {
        // Nothing was ever lost: nothing was ever sent twice.
        assert_eq!(link.sender.retransmissions(), 0, "{}", ctx_of("loss-free wire"));
    }
}

#[test]
fn every_fault_schedule_keeps_the_link_invariants() {
    let fx = fixture();
    let mut runs = 0u64;
    for batch in 1..=3 {
        for envelopes in 1..=MAX_ENVELOPES {
            let mut poisons = vec![(None, 1)];
            for seq in 1..=envelopes as u64 {
                poisons.extend([(Some(seq), 1), (Some(seq), 2)]);
            }
            for (poison, budget) in poisons {
                for acks_in_frames in [true, false] {
                    let cfg = Config { batch, envelopes, poison, budget, acks_in_frames };
                    for index in 0..5u32.pow(DEPTH) {
                        run(&fx, cfg, &schedule(index));
                        runs += 1;
                    }
                }
            }
        }
    }
    // 3 batch sizes × Σ_{n=1..4} (1 + 2n) poison cases × 2 ack modes × 5^4.
    assert_eq!(runs, 3 * (3 + 5 + 7 + 9) * 2 * 625);
    println!("link machine: {runs} schedules explored exhaustively, every invariant held");
}

/// The satellite regression at the session level: on a loss-free batched
/// sim wire every envelope is put on the wire exactly once, so the
/// session reports no retransmissions (the per-round count it replaces
/// charged seven of every eight envelopes of a K = 8 frame).
#[test]
fn loss_free_batched_session_counts_no_retransmissions() {
    let program = Arc::new(parse_program(SRC).unwrap());
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("store", 1, |_, _| Ok(Value::Null));
    let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
    let config = SimConfig::new(
        Host::new("producer", 1_000_000.0),
        Link::new("lan", SimTime::from_millis(1), 1_000_000.0).with_fault_plan(FaultPlan::new(1)),
        Host::new("consumer", 1_000_000.0),
        TriggerPolicy::Never,
    )
    .with_batching(8, SimTime::from_millis(3_600_000));
    let mut session =
        SimSession::adaptive(program, "tally", model, BuiltinRegistry::new(), builtins, config)
            .unwrap();
    session.run(64, |i, _| Ok(vec![Value::Int(i as i64)])).unwrap();
    assert_eq!(session.drain(10).unwrap(), 0);
    assert_eq!(session.applied_results().len(), 64);
    assert_eq!(session.envelope_batches(), 8);
    assert_eq!(session.retransmissions(), 0, "a loss-free wire retransmits nothing");
}
