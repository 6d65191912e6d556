//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written out once at exit.
//!
//! A [`Tracer`] that is off costs one branch per call, so the untraced and
//! the traced run share their code and the difference between the two runs
//! is the tracing overhead (`driver.trace_overhead_share`).

use std::collections::BTreeMap;
use std::time::Instant;

use method_partitioning::obs::Json;

/// Envelopes whose spans are kept one by one; every call still feeds the
/// per-name totals, so the medians cover the whole run.
const SPAN_ENVELOPES: u64 = 256;

/// One timed call: `parent` names the enclosing span of the same envelope
/// (empty at the top level).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub envelope: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Parent, sum, count and samples of one span name.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub parent: &'static str,
    pub total_ns: u64,
    pub calls: u64,
    pub samples_ns: Vec<u64>,
}

impl Tally {
    pub fn median_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        crate::stats::quantile_ns(&self.samples_ns, 0.5)
    }
}

/// Envelope id of a call that belongs to no single envelope (a drain, a
/// session open); its span is always kept.
pub const NO_ENVELOPE: u64 = u64::MAX;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// The first envelope id seen: spans are kept for the
    /// [`SPAN_ENVELOPES`] envelopes from there on.
    first_envelope: Option<u64>,
    pub spans: Vec<Span>,
    pub tallies: BTreeMap<&'static str, Tally>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            first_envelope: None,
            spans: Vec::new(),
            tallies: BTreeMap::new(),
        }
    }

    /// Runs `f`, and when tracing is on records it as span `name` of
    /// `envelope` under `parent`.
    #[inline]
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        envelope: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let tally = self.tallies.entry(name).or_default();
        tally.parent = parent;
        tally.total_ns += ns;
        tally.calls += 1;
        tally.samples_ns.push(ns);
        if envelope == NO_ENVELOPE
            || envelope.saturating_sub(*self.first_envelope.get_or_insert(envelope))
                < SPAN_ENVELOPES
        {
            self.spans.push(Span {
                name,
                parent,
                envelope,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
        out
    }

    pub fn tally(&self, name: &str) -> Tally {
        self.tallies.get(name).cloned().unwrap_or_default()
    }

    /// Total nanoseconds under `name` divided by `per` envelopes.
    pub fn ns_per(&self, name: &str, per: u64) -> f64 {
        self.tally(name).total_ns as f64 / per.max(1) as f64
    }
}

/// One span name's share of the envelope, for the trace file's `stages`.
struct Stage {
    name: &'static str,
    parent: &'static str,
    calls: u64,
    total_ns: u64,
    median_ns: f64,
    ns_per_envelope: f64,
}

/// The trace file: every kept span, then per span name its call count,
/// total, median, time per envelope, and self time per envelope (its own
/// minus that of the names whose parent it is). Each tracer comes with the
/// number of envelopes its calls covered, so the real pipeline's spans and
/// the stage walk's are on one per-envelope scale.
pub fn to_json(workload: &str, tracers: &[(&Tracer, u64)]) -> String {
    let mut stages: Vec<Stage> = Vec::new();
    for (tracer, envelopes) in tracers {
        for (name, tally) in &tracer.tallies {
            stages.push(Stage {
                name,
                parent: tally.parent,
                calls: tally.calls,
                total_ns: tally.total_ns,
                median_ns: tally.median_ns(),
                ns_per_envelope: tally.total_ns as f64 / (*envelopes).max(1) as f64,
            });
        }
    }
    let field = |key: &str, value: Json| (key.to_string(), value);
    let spans = tracers.iter().flat_map(|(t, _)| &t.spans).map(|s| {
        Json::Obj(vec![
            field("name", Json::str(s.name)),
            field("parent", Json::str(s.parent)),
            field("envelope", Json::U64(s.envelope)),
            field("start_ns", Json::U64(s.start_ns)),
            field("end_ns", Json::U64(s.end_ns)),
        ])
    });
    let stage_rows = stages.iter().map(|stage| {
        let children: f64 =
            stages.iter().filter(|c| c.parent == stage.name).map(|c| c.ns_per_envelope).sum();
        Json::Obj(vec![
            field("name", Json::str(stage.name)),
            field("parent", Json::str(stage.parent)),
            field("calls", Json::U64(stage.calls)),
            field("total_ns", Json::U64(stage.total_ns)),
            field("median_ns", Json::F64(stage.median_ns)),
            field("ns_per_envelope", Json::F64(stage.ns_per_envelope)),
            field("self_ns_per_envelope", Json::F64(stage.ns_per_envelope - children)),
        ])
    });
    // One span or stage per line: the file is read by eye as well as by tools.
    let lines = |items: &mut dyn Iterator<Item = Json>| {
        items.map(|j| j.render_compact()).collect::<Vec<_>>().join(",\n")
    };
    format!(
        "{{\"workload\":{},\"spans\":[\n{}\n],\"stages\":[\n{}\n]}}\n",
        Json::str(workload).render_compact(),
        lines(&mut spans.into_iter()),
        lines(&mut stage_rows.into_iter())
    )
}
