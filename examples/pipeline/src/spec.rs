//! The one table: every metric (name, unit, direction, bound) and every
//! workload (name, parameters, why) is defined here once, and emitted both
//! by `--list` and into `BENCHMARK.json`.

use method_partitioning::obs::Json;

/// How the driver invokes the benchmark (`BENCHMARK.json` `command`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "examples/pipeline/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["examples/pipeline"];
/// Seconds one run measures for (`--seconds` default).
pub const RUN_SECONDS: u64 = 18;
/// The seed runs use unless told otherwise, and one held out: no number in
/// this repository was tuned on it, so a claim can be checked against it.
pub const DEFAULT_SEED: u64 = 20030519;
pub const HELD_OUT_SEED: u64 = 77003;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// A count or a virtual time: identical on every run of one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric { name, unit, better, bound, exact }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Metric {
    Metric { name, unit, better, bound: 0.0, exact }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The bounds are three times the widest
/// run-to-run spread measured on the parent commit, capped at the 0.25 the
/// driver allows (README, "Bounds").
pub const END_TO_END: &[Metric] = &[
    // Envelopes applied at the receiver / wall time of the timed region.
    e2e("msgs_per_s", "envelopes/s", Higher, 0.25, false),
    // Closed loop, one wire frame in flight: first event handed in ->
    // last result observable at the receiver side.
    e2e("latency_p50_us", "us", Lower, 0.25, false),
    // Bytes the workload's wire carried, headers and acks included, /
    // envelopes applied.
    e2e("wire_bytes_per_msg", "bytes", Lower, 0.01, true),
    // SimSession::fps() of the workload's handler on the paper's testbed
    // model: virtual time, the paper's Table 2 number.
    e2e("model_fps", "frames/s", Higher, 0.01, true),
    // Process VmHWM after set-up and the first repetition (one session).
    e2e("peak_rss_mib", "MiB", Lower, 0.10, false),
    // Everything before the timed region: analysis miss, engine compile,
    // session open, bind/connect, warm-up.
    e2e("setup_s", "s", Lower, 0.25, false),
];

pub const PER_LAYER: &[Metric] = &[
    layer("analysis.miss_ms", "ms", Lower, false),
    layer("analysis.hit_us", "us", Lower, false),
    layer("analysis.pses", "count", Lower, true),
    layer("engine.run_ns", "ns", Lower, false),
    layer("engine.work_units", "count", Lower, true),
    layer("engine.compile_us", "us", Lower, false),
    layer("engine.fallback_frames", "count", Lower, true),
    layer("modulator.handle_ns", "ns", Lower, false),
    layer("modulator.exec_ns", "ns", Lower, false),
    layer("modulator.samples_per_msg", "count", Lower, true),
    layer("marshal.pack_ns", "ns", Lower, false),
    layer("marshal.unpack_ns", "ns", Lower, false),
    layer("marshal.payload_bytes", "bytes", Lower, true),
    layer("envelope.encode_ns", "ns", Lower, false),
    layer("envelope.flatten_ns", "ns", Lower, false),
    layer("envelope.crc_ns", "ns", Lower, false),
    layer("envelope.decode_ns", "ns", Lower, false),
    layer("envelope.frame_bytes", "bytes", Lower, true),
    layer("envelope.borrowed_share", "ratio", Higher, true),
    layer("tcp.publish_ns", "ns", Lower, false),
    layer("tcp.drain_wait_ns", "ns", Lower, false),
    layer("tcp.frames_per_msg", "count", Lower, true),
    layer("tcp.ack_frames_per_msg", "count", Lower, true),
    layer("tcp.retransmissions", "count", Lower, true),
    layer("tcp.reconnects", "count", Lower, true),
    layer("tcp.heartbeats", "count", Lower, false),
    layer("sim.deliver_ns", "ns", Lower, false),
    layer("sim.drain_ns", "ns", Lower, false),
    layer("sim.batches", "count", Lower, true),
    layer("sim.batch_fill", "ratio", Higher, true),
    layer("sim.batch_member_acks", "count", Lower, true),
    layer("sim.retransmissions", "count", Lower, true),
    layer("demodulator.handle_ns", "ns", Lower, false),
    layer("demodulator.exec_ns", "ns", Lower, false),
    layer("session.submit_ns", "ns", Lower, false),
    layer("session.wait_ns", "ns", Lower, false),
    layer("session.sheds", "count", Lower, true),
    layer("session.open_us", "us", Lower, false),
    layer("journal.append_ns", "ns", Lower, false),
    layer("journal.records_per_msg", "count", Lower, true),
    layer("journal.file_bytes_per_msg", "bytes", Lower, true),
    layer("journal.replay_ms", "ms", Lower, false),
    layer("journal.compact_ms", "ms", Lower, false),
    layer("journal.lines_retained", "count", Lower, true),
    // One plan re-selection + install (force_reconfigure -> install_plan),
    // select + install. A per-layer metric, not an end-to-end one: a ~1 us
    // operation whose median differs by up to 40% from process to process
    // on the parent commit cannot carry a bound of at most 25%.
    layer("reconfig.p50_us", "us", Lower, false),
    layer("reconfig.select_us", "us", Lower, false),
    layer("reconfig.max_flow_us", "us", Lower, false),
    layer("reconfig.install_ns", "ns", Lower, false),
    layer("reconfig.switches", "count", Lower, true),
    layer("reconfig.feedbacks", "count", Lower, true),
    layer("router.deliver_ns", "ns", Lower, false),
    layer("node.rpc_ns", "ns", Lower, false),
    layer("node.request_bytes", "bytes", Lower, true),
    layer("node.reply_bytes", "bytes", Lower, true),
    layer("router.heartbeat_us", "us", Lower, false),
    layer("obs.snapshot_us", "us", Lower, false),
    layer("obs.trace_events_per_msg", "count", Lower, true),
    layer("driver.latency_p99_us", "us", Lower, false),
    layer("driver.latency_p999_us", "us", Lower, false),
    layer("driver.generator_ns", "ns", Lower, false),
    layer("driver.stage_sum_ns", "ns", Lower, false),
    layer("driver.unaccounted_share", "ratio", Lower, false),
    layer("driver.late_over_early", "ratio", Higher, false),
    layer("driver.trace_overhead_share", "ratio", Lower, false),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    TcpSmall,
    TcpBulk,
    SimBatch,
    ComputeDense,
    ManagerJournal,
    RouteTcp,
    AdaptMixed,
}

/// Bytes of `tcp_bulk`'s byte-array payload.
pub const BULK_PAYLOAD_BYTES: usize = 16 * 1024;
/// Side of `compute_dense`'s int frame.
pub const DENSE_FRAME_SIDE: i64 = 64;

pub const WORKLOADS: &[WorkloadKind] = &[
    WorkloadKind::TcpSmall,
    WorkloadKind::TcpBulk,
    WorkloadKind::SimBatch,
    WorkloadKind::ComputeDense,
    WorkloadKind::ManagerJournal,
    WorkloadKind::RouteTcp,
    WorkloadKind::AdaptMixed,
];

/// The sizes of one repetition (one session). A run repeats it until its
/// `--seconds` are spent and reports medians over the repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Envelopes per wire frame.
    pub batch: usize,
    /// Warm-up envelopes, inside set-up.
    pub warmup: u64,
    /// Closed-loop wire frames timed one by one (`latency_p50_us`).
    pub latency_frames: u64,
    /// Envelopes of the throughput phase (`msgs_per_s`).
    pub envelopes: u64,
    /// Concurrent sessions of the repetition.
    pub sessions: usize,
}

impl Sizes {
    /// Envelopes one repetition sends in all, which is its session length.
    pub fn session_length(&self) -> u64 {
        self.warmup + self.latency_frames * self.batch as u64 + self.envelopes
    }
}

impl WorkloadKind {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TcpSmall => "tcp_small",
            WorkloadKind::TcpBulk => "tcp_bulk",
            WorkloadKind::SimBatch => "sim_batch",
            WorkloadKind::ComputeDense => "compute_dense",
            WorkloadKind::ManagerJournal => "manager_journal",
            WorkloadKind::RouteTcp => "route_tcp",
            WorkloadKind::AdaptMixed => "adapt_mixed",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, which is what makes the
    /// driver run it and hold its end-to-end metrics to their bounds.
    /// `sim_batch` is run by hand and by `--json` only: its time metrics
    /// follow the host's other tenants too closely to carry a bound of at
    /// most 25% (README, "Why `sim_batch` is not in the manifest").
    pub fn in_manifest(self) -> bool {
        self != WorkloadKind::SimBatch
    }

    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    pub fn sizes(self, smoke: bool) -> Sizes {
        let s = match self {
            WorkloadKind::TcpSmall => Sizes {
                batch: 1,
                warmup: 1000,
                latency_frames: 2000,
                envelopes: 50_000,
                sessions: 1,
            },
            WorkloadKind::TcpBulk => {
                Sizes { batch: 16, warmup: 1024, latency_frames: 100, envelopes: 6400, sessions: 1 }
            }
            WorkloadKind::SimBatch => Sizes {
                batch: 8,
                warmup: 1000,
                latency_frames: 250,
                envelopes: 10_000,
                sessions: 1,
            },
            WorkloadKind::ComputeDense => {
                Sizes { batch: 1, warmup: 200, latency_frames: 1500, envelopes: 0, sessions: 1 }
            }
            WorkloadKind::ManagerJournal => Sizes {
                batch: 1,
                warmup: 1000,
                latency_frames: 2000,
                envelopes: 40_000,
                sessions: 8,
            },
            WorkloadKind::RouteTcp => {
                Sizes { batch: 1, warmup: 1000, latency_frames: 6000, envelopes: 0, sessions: 8 }
            }
            WorkloadKind::AdaptMixed => {
                Sizes { batch: 1, warmup: 420, latency_frames: 1680, envelopes: 0, sessions: 1 }
            }
        };
        if !smoke {
            return s;
        }
        // `--smoke`: counts / 100, rounded up to whole frames, rounds and cycles.
        let unit = match self {
            WorkloadKind::AdaptMixed => crate::fixture::MIXED_CYCLE as u64,
            _ => (s.batch * s.sessions) as u64,
        };
        let shrink = |n: u64| if n == 0 { 0 } else { (n / 100).max(1).div_ceil(unit) * unit };
        Sizes {
            warmup: shrink(s.warmup),
            latency_frames: shrink(s.latency_frames),
            envelopes: shrink(s.envelopes),
            ..s
        }
    }

    /// Loop kind and client count, for the README and `--list`.
    pub fn load(self) -> &'static str {
        match self {
            WorkloadKind::TcpSmall | WorkloadKind::TcpBulk => {
                "closed loop (latency) then pipelined (throughput), 1 generator, 1 connection"
            }
            WorkloadKind::SimBatch => "closed loop then pipelined, single thread, no socket",
            WorkloadKind::ComputeDense | WorkloadKind::AdaptMixed => {
                "closed loop, 1 generator, no socket"
            }
            WorkloadKind::ManagerJournal => {
                "closed loop, then 1 generator with one delivery outstanding per session"
            }
            WorkloadKind::RouteTcp => "closed loop, 1 generator, 1 connection per node",
        }
    }

    /// One line for `BENCHMARK.json`: what runs, with its recorded
    /// parameters, and why it is here.
    pub fn why(self) -> String {
        let s = self.sizes(false);
        let shape = format!("K={} session={}", s.batch, s.session_length());
        match self {
            WorkloadKind::TcpSmall => format!(
                "loopback TCP, 6-instr handler, int payload, {shape}: per-envelope fixed cost (header, CRC, syscall, ack, hand-off) is nearly all the work"
            ),
            WorkloadKind::TcpBulk => format!(
                "loopback TCP, 16 KiB byte payload, entry cut, {shape}: marshal, zero-copy encode, CRC, kernel copy, decode, unmarshal dominate"
            ),
            WorkloadKind::SimBatch => format!(
                "supervised sim wire, one thread, no kernel, {shape}: stage sums must reconcile; state growing with session length shows"
            ),
            WorkloadKind::ComputeDense => format!(
                "SessionManager 1 session/1 worker, 2x2 downsample of a 64x64 frame in IR loops, {shape}: engine execution is the envelope"
            ),
            WorkloadKind::ManagerJournal => format!(
                "SessionManager 8 sessions/2 workers, file journal, trivial handler, {shape}: journal append per ack and queue hand-off dominate"
            ),
            WorkloadKind::RouteTcp => format!(
                "Router over 2 loopback NodeServer/TcpNode, 8 sessions, {shape}: the node text protocol and routed RPC path"
            ),
            WorkloadKind::AdaptMixed => format!(
                "paper's image streaming, Mixed scenario from --seed, Rate(1), {shape}: profiling, min-cut re-selection and plan installs beside flag reads"
            ),
        }
    }
}

/// The exact text of `BENCHMARK.json` (and of `--list`).
pub fn manifest() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let field = |key: &str, value: Json| (key.to_string(), value);
    let metric = |m: &Metric, with_bound: bool| {
        let mut fields = vec![
            field("name", Json::str(m.name)),
            field("unit", Json::str(m.unit)),
            field("better", Json::str(m.better.as_str())),
        ];
        if with_bound {
            fields.push(field("bound", Json::F64(m.bound)));
        }
        Json::Obj(fields)
    };
    Json::Obj(vec![
        field("command", strings(COMMAND)),
        field("paths", strings(PATHS)),
        field("run_seconds", Json::U64(RUN_SECONDS)),
        field(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.in_manifest())
                    .map(|w| {
                        Json::Obj(vec![
                            field("name", Json::str(w.name())),
                            field("why", Json::str(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        field("end_to_end", Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect())),
        field("per_layer", Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect())),
    ])
    .render()
}
