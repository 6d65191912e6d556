//! The stage walk: the driver executes one envelope's stages itself, on the
//! workload's own handler and events, timing each call into a layer's
//! public functions from outside. This is where the per-layer times of the
//! layers a transport hides inside one call (modulator, marshal, envelope,
//! demodulator, journal) come from.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use method_partitioning::analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use method_partitioning::core::journal::{JournalRecord, SessionJournal};
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::core::reconfig::{select_active_set, ReconfigUnit};
use method_partitioning::core::router::{NodeEndpoint, SessionSpec};
use method_partitioning::core::session::SessionConfig;
use method_partitioning::core::PartitionedHandler;
use method_partitioning::ir::compile::{CompileHints, CompileOptions, Observed};
use method_partitioning::ir::engine::{CompiledEngine, Engine};
use method_partitioning::ir::heap::Heap;
use method_partitioning::ir::interp::ExecCtx;
use method_partitioning::ir::marshal::{marshal_values, unmarshal_values};
use method_partitioning::jecho::envelope::{crc32, Frame, ModulatedEvent, FRAME_HEADER_BYTES};
use method_partitioning::jecho::node::{NodeServer, TcpNode};
use method_partitioning::jecho::RetryPolicy;

use crate::fixture::{profile_one, Fixture};
use crate::spec::{Sizes, WorkloadKind};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{err, Res};

/// Named per-layer values, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median seconds-per-call of `f` over `n` calls, as a `Duration` mapper.
fn median_of<T>(n: usize, mut f: impl FnMut() -> T, unit: fn(Duration) -> f64) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            unit(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// `analysis.*`, `engine.*` and `obs.snapshot_us`: what set-up pays.
pub fn setup_layers(fx: &Fixture) -> Res<Values> {
    let mut out = Values::new();
    let analyze = |cache: &AnalysisCache| {
        PartitionedHandler::analyze_cached(
            Arc::clone(&fx.program),
            fx.func,
            Arc::clone(&fx.model),
            cache,
        )
    };
    let mut misses = Vec::new();
    let mut hits = Vec::new();
    let mut handler = None;
    for _ in 0..5 {
        let cache = AnalysisCache::new(DEFAULT_CACHE_CAPACITY);
        let t = Instant::now();
        let h = analyze(&cache).map_err(err("analysis miss"))?;
        misses.push(ms(t.elapsed()));
        for _ in 0..8 {
            let t = Instant::now();
            analyze(&cache).map_err(err("analysis hit"))?;
            hits.push(us(t.elapsed()));
        }
        if cache.misses() != 1 || cache.hits() != 8 {
            return Err(format!("cache saw {} misses, {} hits", cache.misses(), cache.hits()));
        }
        handler = Some(h);
    }
    let handler = handler.expect("five analyses ran");
    out.push(("analysis.miss_ms", median(&misses)));
    out.push(("analysis.hit_us", median(&hits)));
    out.push(("analysis.pses", handler.analysis().pses().len() as f64));

    out.push(("engine.compile_us", median_of(5, || handler.select_engine(Default::default()), us)));
    fx.prepare(&handler).map_err(err("prepare"))?;
    let engine = handler.engine();
    let mut work = 0u64;
    let mut runs = Vec::with_capacity(fx.events.len() * 4);
    for i in 0..fx.events.len() * 4 {
        let mut ctx = ExecCtx::with_builtins(&fx.program, fx.receiver_builtins.clone());
        ctx.trace_digests = false;
        let args =
            fx.events[i % fx.events.len()].build(&fx.program, &mut ctx).map_err(err("event"))?;
        let t = Instant::now();
        let ret = engine.run(&mut ctx, fx.func, args).map_err(err("engine.run"))?;
        runs.push(t.elapsed().as_nanos() as f64);
        if !fx.matches(i as u64, &ret) {
            return Err(format!("engine.run: event {i} returned {ret:?}"));
        }
        work += ctx.work;
    }
    out.push(("engine.run_ns", median(&runs)));
    out.push(("engine.work_units", work as f64 / runs.len() as f64));

    // Frames the bytecode engine hands back to the interpreter, counted on
    // a compile under the handler's own watched-edge hints.
    let exec = handler.analysis().exec_hints();
    let mut hints = CompileHints {
        default: CompileOptions {
            observed: Observed::Edges(HashSet::new()),
            fuse: true,
            fuse_at: None,
        },
        ..CompileHints::default()
    };
    hints.per_fn.insert(
        fx.func.to_string(),
        CompileOptions {
            observed: Observed::Edges(exec.observed),
            fuse: true,
            fuse_at: Some(exec.fuse_at),
        },
    );
    let compiled = CompiledEngine::compile(Arc::clone(&fx.program), &hints);
    for (i, event) in fx.events.iter().enumerate() {
        let mut ctx = ExecCtx::with_builtins(&fx.program, fx.receiver_builtins.clone());
        ctx.trace_digests = false;
        let args = event.build(&fx.program, &mut ctx).map_err(err("event"))?;
        let ret = compiled.run(&mut ctx, fx.func, args).map_err(err("compiled run"))?;
        if !fx.matches(i as u64, &ret) {
            return Err(format!("compiled engine: event {i} returned {ret:?}"));
        }
    }
    out.push((
        "engine.fallback_frames",
        compiled.fallback_frames() as f64 / fx.events.len() as f64,
    ));

    out.push(("obs.snapshot_us", median_of(32, || handler.obs().registry().snapshot(), us)));
    Ok(out)
}

/// Batches of forced re-selections one [`ReconfigWalk::run`] times, and
/// the re-selections per batch. A re-selection takes about a microsecond,
/// so one sample is the mean over a batch: the timer's own cost and
/// resolution stay a small share of it.
pub const RECONFIG_BATCHES: usize = 24;
const RECONFIG_PER_BATCH: usize = 16;

/// Forced plan re-selections on a handler of the workload's own, timed from
/// outside: re-selection (`force_reconfigure`), install (`install_plan`),
/// and the bare min-cut. A run interleaves calls to [`run`](Self::run)
/// with its repetitions, so the samples spread over the whole run and one
/// momentary state of the machine cannot set the median.
pub struct ReconfigWalk {
    handler: Arc<PartitionedHandler>,
    unit: ReconfigUnit,
    receiver: ExecCtx,
    fed: usize,
    /// One sample per batch, microseconds per re-selection.
    pub select_us: Vec<f64>,
    pub install_us: Vec<f64>,
    pub max_flow_us: Vec<f64>,
}

impl ReconfigWalk {
    pub fn new(fx: &Fixture) -> Res<ReconfigWalk> {
        let handler = fx.analyze().map_err(err("analysis"))?;
        let unit = ReconfigUnit::new(
            Arc::clone(handler.analysis()),
            handler.model().kind(),
            TriggerPolicy::Never,
        )
        .with_obs(Arc::clone(handler.obs()));
        let receiver = ExecCtx::with_builtins(&fx.program, fx.receiver_builtins.clone());
        Ok(ReconfigWalk {
            handler,
            unit,
            receiver,
            fed: 0,
            select_us: Vec::new(),
            install_us: Vec::new(),
            max_flow_us: Vec::new(),
        })
    }

    /// `reconfig.p50_us`: re-selection plus install, as the driver sees it.
    pub fn total_p50_us(&self) -> f64 {
        let totals: Vec<f64> =
            self.select_us.iter().zip(&self.install_us).map(|(s, i)| s + i).collect();
        median(&totals)
    }

    /// Times [`RECONFIG_BATCHES`] more batches. Before each batch one event
    /// runs through the handler by hand with every profiling flag set, so
    /// the unit re-selects on fresh statistics the way it does in service.
    pub fn run(&mut self, fx: &Fixture) -> Res<()> {
        let per_batch = RECONFIG_PER_BATCH as f64;
        for _ in 0..RECONFIG_BATCHES {
            for pse in 0..self.handler.plan().len() {
                self.handler.plan().set_profiled(pse, true);
            }
            let mut sender = ExecCtx::with_builtins(&fx.program, fx.sender_builtins.clone());
            let event = &fx.events[self.fed % fx.events.len()];
            self.fed += 1;
            let args = event.build(&fx.program, &mut sender).map_err(err("event"))?;
            profile_one(&self.handler, &mut self.unit, &mut sender, &mut self.receiver, args)
                .map_err(err("profile"))?;

            let (mut select, mut install) = (Duration::ZERO, Duration::ZERO);
            let mut update = None;
            for _ in 0..RECONFIG_PER_BATCH {
                let t = Instant::now();
                let u = self.unit.force_reconfigure().map_err(err("force_reconfigure"))?;
                select += t.elapsed();
                let t = Instant::now();
                let epoch = self.handler.install_plan(&u.active);
                install += t.elapsed();
                self.unit.acknowledge_epoch(epoch);
                update = Some(u);
            }
            let update = update.expect("a batch holds at least one re-selection");
            self.select_us.push(us(select) / per_batch);
            self.install_us.push(us(install) / per_batch);
            let t = Instant::now();
            for _ in 0..RECONFIG_PER_BATCH {
                let cut = select_active_set(self.handler.analysis(), &update.weights)
                    .map_err(err("min-cut"))?;
                if cut != update.active {
                    return Err(format!(
                        "min-cut {cut:?} differs from the unit's {:?}",
                        update.active
                    ));
                }
            }
            self.max_flow_us.push(us(t.elapsed()) / per_batch);
        }
        Ok(())
    }
}

/// Wire frames the stage walk sends.
const WALK_FRAMES: u64 = 256;

/// Envelopes the stage walk sends for a workload of these sizes.
pub fn walk_envelopes(sizes: &Sizes) -> u64 {
    WALK_FRAMES * sizes.batch as u64
}

/// The stage walk proper. `sender_parent`/`receiver_parent` name the
/// transport call that contains the sender-side and receiver-side stages
/// in the real pipeline (empty where they run on another thread).
pub fn stage_walk(
    kind: WorkloadKind,
    fx: &Fixture,
    sizes: &Sizes,
    scratch: &Path,
    sender_parent: &'static str,
    receiver_parent: &'static str,
    tracer: &mut Tracer,
) -> Res<Values> {
    let handler = fx.analyze().map_err(err("analysis"))?;
    let (modulator, demodulator) = (handler.modulator(), handler.demodulator());
    let mut receiver = ExecCtx::with_builtins(&fx.program, fx.receiver_builtins.clone());
    receiver.trace_digests = false;
    // The session workloads journal one ack per applied envelope: to a
    // file (`manager_journal`) or in memory (`route_tcp`).
    let journal_path = scratch.join("probe-journal.log");
    let _ = std::fs::remove_file(&journal_path);
    let journal = match kind {
        WorkloadKind::ManagerJournal => {
            Some(SessionJournal::at_path(&journal_path).map_err(err("journal"))?)
        }
        WorkloadKind::RouteTcp => Some(SessionJournal::in_memory()),
        _ => None,
    };
    // Only the wire workloads frame their continuations.
    let framed =
        matches!(kind, WorkloadKind::TcpSmall | WorkloadKind::TcpBulk | WorkloadKind::SimBatch);
    let flattened = kind == WorkloadKind::SimBatch;
    let batch = sizes.batch as u64;
    let envelopes = walk_envelopes(sizes);
    let (mut payload_bytes, mut samples, mut frame_bytes) = (0u64, 0u64, 0u64);
    let (mut borrowed, mut copied) = (0u64, 0u64);

    for frame_no in 0..WALK_FRAMES {
        let mut events = Vec::with_capacity(sizes.batch);
        for k in 0..batch {
            let i = frame_no * batch + k;
            let mut sender = ExecCtx::with_builtins(&fx.program, fx.sender_builtins.clone());
            sender.trace_digests = false;
            let make = fx.make_event(i);
            let args = tracer
                .time("driver.generator", sender_parent, i, || make(&mut sender))
                .map_err(err("event"))?;
            let run = tracer
                .time("modulator.handle", sender_parent, i, || modulator.handle(&mut sender, args))
                .map_err(err("modulate"))?;
            // The marshal share, replayed on the payload: unpack it into
            // a scratch heap, then pack it again from there.
            let mut scratch_heap = Heap::new();
            let roots = tracer
                .time("marshal.unpack", "demodulator.handle", i, || {
                    unmarshal_values(&mut scratch_heap, &fx.program.classes, &run.message.payload)
                })
                .map_err(err("unmarshal"))?;
            let repacked = tracer
                .time("marshal.pack", "modulator.handle", i, || {
                    marshal_values(&scratch_heap, &roots)
                })
                .map_err(err("marshal"))?;
            if repacked.as_bytes() != run.message.payload.as_bytes() {
                return Err(format!("envelope {i}: replayed marshal differs from the payload"));
            }
            payload_bytes += run.message.payload.wire_size() as u64;
            samples += run.samples.len() as u64;
            events.push((
                ModulatedEvent { seq: i + 1, continuation: run.message, samples: run.samples },
                0u64,
            ));
        }

        let first = frame_no * batch;
        let arrivals = if framed {
            let frame = match events.len() {
                1 => {
                    let (event, t_mod_nanos) = events.pop().expect("one event");
                    Frame::Event { event, t_mod_nanos }
                }
                _ => Frame::Batch { events },
            };
            let enc = tracer
                .time("envelope.encode", sender_parent, first, || frame.try_encode_frame())
                .map_err(err("encode"))?;
            frame_bytes += enc.len() as u64;
            borrowed += enc.borrowed_payload_bytes();
            copied += enc.copied_payload_bytes();
            // The sim wire flattens; a socket gathers the segments instead,
            // and the kernel copy is not the envelope layer's.
            let name = if flattened { "envelope.flatten" } else { "driver.flatten_for_decode" };
            let bytes = tracer.time(name, sender_parent, first, || enc.to_vec());
            tracer.time("envelope.crc", "envelope.decode", first, || {
                crc32(&[&bytes[..1], &bytes[1..5], &bytes[FRAME_HEADER_BYTES..]])
            });
            let (decoded, used) = tracer
                .time("envelope.decode", receiver_parent, first, || Frame::decode_bytes(&bytes))
                .map_err(err("decode"))?;
            if used != bytes.len() {
                return Err(format!("frame {frame_no}: decoded {used} of {} bytes", bytes.len()));
            }
            match decoded {
                Frame::Event { event, t_mod_nanos } => vec![(event, t_mod_nanos)],
                Frame::Batch { events } => events,
                other => return Err(format!("frame {frame_no}: decoded as {other:?}")),
            }
        } else {
            events
        };

        for (event, _) in arrivals {
            let i = event.seq - 1;
            let demod = tracer
                .time("demodulator.handle", receiver_parent, i, || {
                    demodulator.handle(&mut receiver, &event.continuation)
                })
                .map_err(err("demodulate"))?;
            if !fx.matches(i, &demod.ret) {
                return Err(format!("stage walk: envelope {i} returned {:?}", demod.ret));
            }
            if let Some(journal) = &journal {
                tracer
                    .time("journal.append", receiver_parent, i, || {
                        journal.append(JournalRecord::Ack { session: 0, watermark: event.seq })
                    })
                    .map_err(err("journal append"))?;
            }
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);

    let per = |name: &str| tracer.ns_per(name, envelopes);
    let pack = per("marshal.pack");
    let unpack = per("marshal.unpack");
    Ok(vec![
        ("driver.generator_ns", per("driver.generator")),
        ("modulator.handle_ns", per("modulator.handle")),
        ("modulator.exec_ns", (per("modulator.handle") - pack).max(0.0)),
        ("modulator.samples_per_msg", samples as f64 / envelopes as f64),
        ("marshal.pack_ns", pack),
        ("marshal.unpack_ns", unpack),
        ("marshal.payload_bytes", payload_bytes as f64 / envelopes as f64),
        ("envelope.encode_ns", per("envelope.encode")),
        ("envelope.flatten_ns", per("envelope.flatten")),
        ("envelope.crc_ns", per("envelope.crc")),
        ("envelope.decode_ns", per("envelope.decode")),
        ("envelope.frame_bytes", frame_bytes as f64 / envelopes as f64),
        ("envelope.borrowed_share", borrowed as f64 / (borrowed + copied).max(1) as f64),
        ("demodulator.handle_ns", per("demodulator.handle")),
        ("demodulator.exec_ns", (per("demodulator.handle") - unpack).max(0.0)),
        ("journal.append_ns", per("journal.append")),
    ])
}

/// `node.rpc_ns`: one `deliver` exchange of the node protocol, straight
/// through a `TcpNode` client, without the router above it.
pub fn node_rpc(fx: &Fixture) -> Res<f64> {
    let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_CAPACITY));
    let server = NodeServer::spawn(
        "probe-node",
        Arc::clone(&fx.program),
        SessionConfig::default().with_workers(1),
        cache,
        fx.sender_builtins.clone(),
        fx.receiver_builtins.clone(),
    )
    .map_err(err("spawn node"))?;
    let mut node = TcpNode::new("probe-node", server.port(), RetryPolicy::default());
    let spec = SessionSpec {
        program: Arc::clone(&fx.program),
        func: fx.func.to_string(),
        model: Arc::clone(&fx.model),
        sender_builtins: fx.sender_builtins.clone(),
        receiver_builtins: fx.receiver_builtins.clone(),
    };
    let local = node.open(0, &spec).map_err(err("node open"))?;
    let mut samples = Vec::with_capacity(2048);
    for i in 0..2048u64 {
        let args = fx.events[i as usize % fx.events.len()].scalar_args();
        let t = Instant::now();
        let outcome = node.deliver(local, args).map_err(err("node deliver"))?;
        samples.push(t.elapsed().as_nanos() as f64);
        if outcome.seq != i + 1 || !fx.matches(i, &outcome.ret) {
            return Err(format!("node rpc {i}: seq {} ret {:?}", outcome.seq, outcome.ret));
        }
    }
    drop(node);
    server.shutdown();
    Ok(median(&samples))
}
