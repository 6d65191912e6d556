//! One repetition of each workload: set-up (timed as `setup_s`), the
//! closed-loop latency phase, the throughput phase, tear-down and checks.

mod manager;
mod route;
mod sim;
mod tcp;

use std::path::Path;
use std::time::Instant;

use crate::fixture::Fixture;
use crate::spec::{Sizes, WorkloadKind};
use crate::trace::Tracer;

/// What one repetition measured and checked.
#[derive(Debug, Default, Clone)]
pub struct Rep {
    /// Everything before the timed regions.
    pub setup_s: f64,
    /// Wall time of the region `msgs_per_s` is taken over, and the
    /// envelopes applied in it.
    pub timed_s: f64,
    pub timed_msgs: u64,
    /// One sample per closed-loop wire frame.
    pub latencies_ns: Vec<u64>,
    /// Bytes the workload's wire carried and the envelopes they carried,
    /// where the repetition can see them itself (sim wire, in-process
    /// continuations); the TCP workloads take theirs from the census.
    pub wire_bytes: u64,
    pub wire_msgs: u64,
    /// Envelopes sent, and those not applied exactly once or applied with
    /// a result other than the reference.
    pub attempted: u64,
    pub failed: u64,
    /// Rate of the last tenth of the timed region over the first tenth.
    pub late_over_early: f64,
    /// Per-layer values the repetition measured itself, by metric name:
    /// counters read off the layer, and times of calls made once.
    pub layer: Vec<(&'static str, f64)>,
    /// Virtual-time frames per second, where the repetition is itself a
    /// run on the paper's testbed model (`adapt_mixed`).
    pub model_fps: Option<f64>,
}

impl Rep {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// Bytes and frames of the short closed-loop census session that runs
/// through the counting relay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Census {
    pub msgs: u64,
    pub up_bytes: u64,
    pub up_units: u64,
    pub down_bytes: u64,
    pub down_units: u64,
}

impl Census {
    pub fn bytes_per_msg(&self) -> f64 {
        (self.up_bytes + self.down_bytes) as f64 / self.msgs.max(1) as f64
    }
}

/// Marks the first and the last tenth of a timed region of `n` sends, for
/// `driver.late_over_early`: below 1, per-envelope cost grew in-session.
pub struct Tenths {
    n: u64,
    start: Instant,
    first_end: Instant,
    last_start: Instant,
}

impl Tenths {
    pub fn start(n: u64) -> Tenths {
        let now = Instant::now();
        Tenths { n, start: now, first_end: now, last_start: now }
    }

    /// Call before send number `i` (0-based).
    #[inline]
    pub fn mark(&mut self, i: u64) {
        let tenth = self.n / 10;
        if i == tenth {
            self.first_end = Instant::now();
        }
        if i == self.n - tenth {
            self.last_start = Instant::now();
        }
    }

    /// Rate of the last tenth over the rate of the first tenth.
    pub fn finish(self) -> f64 {
        let early = self.first_end.duration_since(self.start).as_secs_f64();
        let late = self.last_start.elapsed().as_secs_f64();
        if self.n < 10 || late <= 0.0 {
            return 1.0;
        }
        early / late
    }
}

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs one repetition of `kind`. `scratch` is a directory inside the
/// checkout for the files a workload writes (the journal).
pub fn run_rep(
    kind: WorkloadKind,
    fx: &Fixture,
    sizes: &Sizes,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Res<Rep> {
    let started = Instant::now();
    match kind {
        WorkloadKind::TcpSmall | WorkloadKind::TcpBulk => {
            tcp::rep(fx, sizes, seed, started, tracer)
        }
        WorkloadKind::SimBatch => sim::rep_supervised(fx, sizes, seed, started, tracer),
        WorkloadKind::AdaptMixed => sim::rep_adaptive(fx, sizes, seed, started, tracer),
        WorkloadKind::ComputeDense | WorkloadKind::ManagerJournal => {
            manager::rep(kind, fx, sizes, scratch, started, tracer)
        }
        WorkloadKind::RouteTcp => route::rep(fx, sizes, started, tracer),
    }
}

/// The census session of a socket workload; `None` where the repetition
/// sees its own wire bytes.
pub fn census(kind: WorkloadKind, fx: &Fixture, sizes: &Sizes, seed: u64) -> Res<Option<Census>> {
    match kind {
        WorkloadKind::TcpSmall | WorkloadKind::TcpBulk => tcp::census(fx, sizes, seed).map(Some),
        WorkloadKind::RouteTcp => route::census(fx, sizes).map(Some),
        _ => Ok(None),
    }
}

pub use sim::model_run;
