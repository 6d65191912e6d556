//! Run modes: one workload in this process (`child`), every workload in
//! child processes (`parent`), two sets compared (`check_repeat`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use method_partitioning::obs::Json;

use crate::fixture::Fixture;
use crate::probe;
use crate::spec::{self, Metric, Sizes, WorkloadKind, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quantile_ns, summarize, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Census, Rep, Res};
use crate::Options;

/// Real spans that tile the generator thread's timed region; their sum per
/// envelope is `driver.stage_sum_ns`.
const TIMED_REGION_SPANS: &[&str] = &[
    "tcp.publish",
    "driver.window_wait",
    "tcp.drain_wait",
    "sim.deliver",
    "sim.drain",
    "session.submit",
    "session.wait",
    "router.deliver",
];

/// `driver.unaccounted_share` above this fails the run on `sim_batch`, the
/// workload whose whole pipeline runs inside the traced calls.
const UNACCOUNTED_LIMIT: f64 = 0.15;

/// A directory for this process's files, inside the build output directory
/// (which is inside the checkout and ignored by git).
fn scratch_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("pipeline-scratch")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> Res<f64> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One reported metric: its median, and quartiles and count where it is a
/// median over samples.
struct Reported {
    metric: &'static Metric,
    value: f64,
    spread: Option<Summary>,
}

fn report_line(r: &Reported) -> String {
    let mut line = format!("  {:<28} {:>16.4} {}", r.metric.name, r.value, r.metric.unit);
    if let Some(s) = &r.spread {
        let _ = write!(line, "   [q1 {:.4}, q3 {:.4}, n={}]", s.q1, s.q3, s.n);
    }
    line
}

/// `{"name": {"value": v, "unit": u}, ...}`, the shape of a result line's
/// `metrics` and of the `--json` file's blocks.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_string(), Json::F64(value)),
                    ("unit".to_string(), Json::str(unit)),
                ];
                (name.to_string(), Json::Obj(entry))
            })
            .collect(),
    )
}

/// The result line the driver reads: last line of standard output.
fn result_json(correct: bool, attempted: u64, failed: u64, reported: &[Reported]) -> String {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U64(attempted)),
        ("failed".to_string(), Json::U64(failed)),
        (
            "metrics".to_string(),
            metrics_json(reported.iter().map(|r| (r.metric.name, r.value, r.metric.unit))),
        ),
    ])
    .render_compact()
}

/// The values of a repetition that must be identical on every repetition
/// of one seed: wire bytes, virtual-time fps, and every exact counter.
fn exact_signature(rep: &Rep) -> Vec<(String, u64)> {
    let mut sig = vec![
        ("wire_bytes".to_string(), rep.wire_bytes),
        ("wire_msgs".to_string(), rep.wire_msgs),
        ("model_fps".to_string(), rep.model_fps.unwrap_or(0.0).to_bits()),
    ];
    for (name, value) in &rep.layer {
        if PER_LAYER.iter().any(|m| m.name == *name && m.exact) {
            sig.push((name.to_string(), value.to_bits()));
        }
    }
    sig
}

/// Runs `kind` in this process and prints its result line.
pub fn child(kind: WorkloadKind, o: &Options) -> Res<bool> {
    let sizes = kind.sizes(o.smoke);
    let fx = Fixture::build(kind, o.seed).map_err(|e| format!("fixture: {e}"))?;
    let scratch = scratch_dir()?;
    println!(
        "{} seed={} K={} session={} envelopes (warm-up {}, closed-loop frames {}, pipelined {}), {}",
        kind.name(),
        o.seed,
        sizes.batch,
        sizes.session_length(),
        sizes.warmup,
        sizes.latency_frames,
        sizes.envelopes,
        kind.load()
    );
    let result = if o.trace {
        traced(kind, &fx, &sizes, o, &scratch)
    } else {
        untraced(kind, &fx, &sizes, o, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn census_twice(kind: WorkloadKind, fx: &Fixture, sizes: &Sizes, seed: u64) -> Res<Option<Census>> {
    let Some(first) = workloads::census(kind, fx, sizes, seed)? else { return Ok(None) };
    let second = workloads::census(kind, fx, sizes, seed)?.expect("same workload, same answer");
    let key = |c: &Census| (c.msgs, c.up_bytes, c.up_units, c.down_bytes, c.down_units);
    if key(&first) != key(&second) {
        return Err(format!(
            "wire census differs between two runs of one seed: {first:?} vs {second:?}"
        ));
    }
    Ok(Some(first))
}

fn untraced(
    kind: WorkloadKind,
    fx: &Fixture,
    sizes: &Sizes,
    o: &Options,
    scratch: &std::path::Path,
) -> Res<bool> {
    let started = Instant::now();
    let mut quiet = Tracer::new(false);
    // The virtual-time run, twice: it must not depend on anything but
    // the seed. `adapt_mixed` is such a run itself, every repetition.
    let mut model_fps = None;
    if kind != WorkloadKind::AdaptMixed {
        let (a, b) = (workloads::model_run(fx)?, workloads::model_run(fx)?);
        if a.to_bits() != b.to_bits() {
            return Err(format!("model_fps differs between two runs of one seed: {a} vs {b}"));
        }
        model_fps = Some(a);
    }
    let census = census_twice(kind, fx, sizes, o.seed)?;

    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss = f64::NAN;
    while reps.is_empty() || (!o.smoke && started.elapsed().as_secs_f64() < o.seconds) {
        let rep = workloads::run_rep(kind, fx, sizes, o.seed, scratch, &mut quiet)?;
        if let Some(first) = reps.first() {
            if exact_signature(first) != exact_signature(&rep) {
                return Err(format!(
                    "exact counts differ between repetitions of one seed: {:?} vs {:?}",
                    exact_signature(first),
                    exact_signature(&rep)
                ));
            }
        }
        reps.push(rep);
        if reps.len() == 1 {
            // After a fixed amount of work, not at exit: how many more
            // repetitions fit into `--seconds` varies from run to run, and
            // the allocator's high-water mark creeps with their number.
            peak_rss = peak_rss_mib()?;
        }
    }

    let over = |f: &dyn Fn(&Rep) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>());
    let rate = over(&|r| r.timed_msgs as f64 / r.timed_s);
    let latency = over(&|r| quantile_ns(&r.latencies_ns, 0.5) / 1e3);
    let setup = over(&|r| r.setup_s);
    let first = &reps[0];
    let wire = match &census {
        Some(c) => c.bytes_per_msg(),
        None => first.wire_bytes as f64 / first.wire_msgs as f64,
    };
    let model_fps = model_fps.or(first.model_fps).ok_or("no model_fps")?;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();

    let value_of = |name: &str| -> (f64, Option<Summary>) {
        match name {
            "msgs_per_s" => (rate.median, Some(rate)),
            "latency_p50_us" => (latency.median, Some(latency)),
            "wire_bytes_per_msg" => (wire, None),
            "model_fps" => (model_fps, None),
            "peak_rss_mib" => (peak_rss, None),
            "setup_s" => (setup.median, Some(setup)),
            other => unreachable!("no value for end-to-end metric {other}"),
        }
    };
    let reported: Vec<Reported> = END_TO_END
        .iter()
        .map(|metric| {
            let (value, spread) = value_of(metric.name);
            Reported { metric, value, spread }
        })
        .collect();
    finish(kind, attempted, failed, &reported)
}

fn finish(kind: WorkloadKind, attempted: u64, failed: u64, reported: &[Reported]) -> Res<bool> {
    for r in reported {
        println!("{}", report_line(r));
    }
    if let Some(bad) = reported.iter().find(|r| !r.value.is_finite()) {
        return Err(format!("{}: {} is not a finite number", kind.name(), bad.metric.name));
    }
    let correct = failed == 0;
    println!(
        "  failed_share {} ({failed} of {attempted} envelopes not applied exactly once with the reference result)",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_json(correct, attempted, failed, reported));
    Ok(correct)
}

/// The transport call that contains the sender-side and the receiver-side
/// stages of the stage walk in `kind`'s real pipeline.
fn stage_parents(kind: WorkloadKind) -> (&'static str, &'static str) {
    match kind {
        // The receiver runs on its own thread, overlapped with publish.
        WorkloadKind::TcpSmall | WorkloadKind::TcpBulk => ("tcp.publish", ""),
        WorkloadKind::SimBatch | WorkloadKind::AdaptMixed => ("sim.deliver", "sim.deliver"),
        // Both halves run on the worker while the generator waits.
        WorkloadKind::ComputeDense | WorkloadKind::ManagerJournal => {
            ("session.wait", "session.wait")
        }
        WorkloadKind::RouteTcp => ("router.deliver", "router.deliver"),
    }
}

fn traced(
    kind: WorkloadKind,
    fx: &Fixture,
    sizes: &Sizes,
    o: &Options,
    scratch: &std::path::Path,
) -> Res<bool> {
    let started = Instant::now();
    // Samples per metric name; the reported value is their median.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        // A name the table does not list would be measured and never shown.
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        samples.entry(name).or_default().push(value);
    };

    // Layers measured once, outside any session.
    for (name, value) in probe::setup_layers(fx)? {
        put(name, value);
    }
    let mut reconfig = probe::ReconfigWalk::new(fx)?;
    let mut walk_tracer = Tracer::new(true);
    let (sender_parent, receiver_parent) = stage_parents(kind);
    for (name, value) in probe::stage_walk(
        kind,
        fx,
        sizes,
        scratch,
        sender_parent,
        receiver_parent,
        &mut walk_tracer,
    )? {
        put(name, value);
    }
    if kind == WorkloadKind::RouteTcp {
        put("node.rpc_ns", probe::node_rpc(fx)?);
    }
    if let Some(c) = census_twice(kind, fx, sizes, o.seed)? {
        let per_msg = |n: u64| n as f64 / c.msgs as f64;
        if kind == WorkloadKind::RouteTcp {
            put("node.request_bytes", per_msg(c.up_bytes));
            put("node.reply_bytes", per_msg(c.down_bytes));
        } else {
            put("tcp.frames_per_msg", per_msg(c.up_units));
            put("tcp.ack_frames_per_msg", per_msg(c.down_units));
        }
    }

    // Pairs of one untraced and one traced repetition of the real
    // pipeline: the traced one times every call the generator thread makes
    // in the timed region, the untraced one is what it is compared with.
    let mut quiet = Tracer::new(false);
    let mut last_tracer = Tracer::new(true);
    let mut last_msgs = 0;
    let mut latencies: Vec<u64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut stage_sums, mut base_ns) = (Vec::new(), Vec::new());
    let mut pairs = 0;
    while pairs == 0 || (!o.smoke && started.elapsed().as_secs_f64() < o.seconds) {
        pairs += 1;
        let base = workloads::run_rep(kind, fx, sizes, o.seed, scratch, &mut quiet)?;
        let mut tracer = Tracer::new(true);
        let rep = workloads::run_rep(kind, fx, sizes, o.seed, scratch, &mut tracer)?;
        attempted += base.attempted + rep.attempted;
        failed += base.failed + rep.failed;
        if exact_signature(&base) != exact_signature(&rep) {
            return Err(format!(
                "exact counts differ between the untraced and the traced repetition: {:?} vs {:?}",
                exact_signature(&base),
                exact_signature(&rep)
            ));
        }
        let msgs = rep.timed_msgs;
        let base_ns_per_msg = base.timed_s * 1e9 / base.timed_msgs as f64;
        let traced_ns_per_msg = rep.timed_s * 1e9 / msgs as f64;
        put("driver.trace_overhead_share", 1.0 - base_ns_per_msg / traced_ns_per_msg);
        let stage_sum: f64 = TIMED_REGION_SPANS.iter().map(|s| tracer.ns_per(s, msgs)).sum();
        put("driver.stage_sum_ns", stage_sum);
        stage_sums.push(stage_sum);
        base_ns.push(base_ns_per_msg);
        put("driver.late_over_early", rep.late_over_early);
        put("tcp.publish_ns", tracer.ns_per("tcp.publish", msgs));
        put("tcp.drain_wait_ns", tracer.ns_per("tcp.drain_wait", msgs));
        put("sim.deliver_ns", tracer.ns_per("sim.deliver", msgs));
        put("sim.drain_ns", tracer.ns_per("sim.drain", msgs));
        put("session.submit_ns", tracer.ns_per("session.submit", msgs));
        put("session.wait_ns", tracer.ns_per("session.wait", msgs));
        put("router.deliver_ns", tracer.ns_per("router.deliver", msgs));
        put("session.open_us", tracer.tally("session.open").median_ns() / 1e3);
        put("router.heartbeat_us", tracer.tally("router.heartbeat").median_ns() / 1e3);
        for (name, value) in &rep.layer {
            put(name, *value);
        }
        latencies.extend_from_slice(&rep.latencies_ns);
        last_tracer = tracer;
        last_msgs = msgs;
        reconfig.run(fx)?;
    }
    put("reconfig.p50_us", reconfig.total_p50_us());
    put("reconfig.select_us", median(&reconfig.select_us));
    put("reconfig.install_ns", median(&reconfig.install_us) * 1e3);
    put("reconfig.max_flow_us", median(&reconfig.max_flow_us));
    // Median against median: a pair's two repetitions differ by the
    // machine's noise, which a per-pair ratio would count as unaccounted.
    put("driver.unaccounted_share", (1.0 - median(&stage_sums) / median(&base_ns)).abs());
    put("driver.latency_p99_us", quantile_ns(&latencies, 0.99) / 1e3);
    put("driver.latency_p999_us", quantile_ns(&latencies, 0.999) / 1e3);

    // One file: the real spans of the last traced repetition, then the
    // stage walk's.
    let trace_path = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(format!("pipeline_trace.{}.json", kind.name()));
    let trace = trace::to_json(
        kind.name(),
        &[(&last_tracer, last_msgs), (&walk_tracer, probe::walk_envelopes(sizes))],
    );
    std::fs::write(&trace_path, trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("  spans written to {}", trace_path.display());

    let reported: Vec<Reported> = PER_LAYER
        .iter()
        .map(|metric| {
            // A layer the workload does not pass through spends nothing
            // on it: its times and counts are 0 by measurement.
            let spread = samples.get(metric.name).map(|v| summarize(v));
            Reported {
                metric,
                value: spread.map_or(0.0, |s| s.median),
                spread: spread.filter(|s| s.n > 1),
            }
        })
        .collect();
    let unaccounted = reported
        .iter()
        .find(|r| r.metric.name == "driver.unaccounted_share")
        .map_or(0.0, |r| r.value);
    if kind == WorkloadKind::SimBatch && !o.smoke && unaccounted > UNACCOUNTED_LIMIT {
        return Err(format!(
            "sim_batch: traced stage sums leave {unaccounted:.3} of the envelope unaccounted (limit {UNACCOUNTED_LIMIT})"
        ));
    }
    finish(kind, attempted, failed, &reported)
}

// ---- parent mode ----------------------------------------------------------

/// A child's parsed result line.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses the result line this program itself printed ([`result_json`]).
fn parse_result(line: &str) -> Res<ChildResult> {
    let field = |key: &str| -> Res<&str> {
        let at = line.find(key).ok_or_else(|| format!("result line lacks {key}"))? + key.len();
        let rest = &line[at..];
        Ok(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
    };
    let correct = field("\"correct\":")? == "true";
    let attempted = field("\"attempted\":")?.parse().map_err(|e| format!("attempted: {e}"))?;
    let failed = field("\"failed\":")?.parse().map_err(|e| format!("failed: {e}"))?;
    let key = "\"metrics\":{";
    let body = &line[line.find(key).ok_or("result line lacks metrics")? + key.len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\":")) {
        let name = entry.split('"').nth(1).ok_or("metric without a name")?;
        let value = entry
            .split("\"value\":")
            .nth(1)
            .and_then(|v| v.split(',').next())
            .ok_or("metric without a value")?
            .parse()
            .map_err(|e| format!("{name}: {e}"))?;
        let unit = entry.rsplit('"').next().unwrap_or("");
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    Ok(ChildResult { correct, attempted, failed, metrics })
}

fn spawn_child(kind: WorkloadKind, o: &Options, trace: bool) -> Res<ChildResult> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &o.seed.to_string()]).args([
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) failed: {}{}",
            kind.name(),
            u8::from(trace),
            last,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    parse_result(last)
}

/// Every workload's results, both run modes.
pub struct ResultSet {
    pub correct: bool,
    pub rows: Vec<(WorkloadKind, ChildResult, Option<ChildResult>)>,
}

impl ResultSet {
    fn to_json(&self, o: &Options) -> String {
        let field = |key: &str, value: Json| (key.to_string(), value);
        let block = |r: &ChildResult| {
            metrics_json(r.metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())))
        };
        let workloads = self.rows.iter().map(|(kind, e2e, layers)| {
            let mut fields = vec![
                field("name", Json::str(kind.name())),
                field(
                    "correct",
                    Json::Bool(e2e.correct && layers.as_ref().is_none_or(|l| l.correct)),
                ),
                field("attempted", Json::U64(e2e.attempted)),
                field("failed", Json::U64(e2e.failed)),
                field("end_to_end", block(e2e)),
            ];
            if let Some(layers) = layers {
                fields.push(field("per_layer", block(layers)));
            }
            Json::Obj(fields)
        });
        Json::Obj(vec![
            field("seed", Json::U64(o.seed)),
            field("seconds", Json::F64(o.seconds)),
            field("smoke", Json::Bool(o.smoke)),
            field("workloads", Json::Arr(workloads.collect())),
        ])
        .render()
    }
}

/// Runs every workload (or all of them) in child processes, one after
/// another, untraced then traced.
pub fn parent(o: &Options) -> Res<ResultSet> {
    let mut set = ResultSet { correct: true, rows: Vec::new() };
    for &kind in WORKLOADS {
        let e2e = spawn_child(kind, o, false)?;
        let layers = if o.check_repeat { None } else { Some(spawn_child(kind, o, true)?) };
        set.correct &= e2e.correct && layers.as_ref().is_none_or(|l| l.correct);
        set.rows.push((kind, e2e, layers));
    }
    if let Some(path) = &o.json {
        std::fs::write(path, set.to_json(o)).map_err(|e| format!("{path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(set)
}

/// Two full sets back to back: per metric × workload the two medians,
/// their relative difference and the bound.
pub fn check_repeat(o: &Options) -> Res<bool> {
    let (first, second) = (parent(o)?, parent(o)?);
    let mut ok = first.correct && second.correct;
    println!(
        "\n{:<16} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((kind, a, _), (_, b, _)) in first.rows.iter().zip(&second.rows) {
        for ((name, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            let metric = END_TO_END.iter().find(|m| m.name == name).ok_or("unknown metric")?;
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let within =
                if metric.exact { va.to_bits() == vb.to_bits() } else { diff <= metric.bound };
            ok &= within;
            println!(
                "{:<16} {:<20} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}% {}",
                kind.name(),
                name,
                va,
                vb,
                diff * 100.0,
                metric.bound * 100.0,
                if within { "" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

/// Fails unless the committed manifest is exactly what this binary emits.
pub fn verify_manifest(path: &str) -> Res<bool> {
    let committed = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let expected = spec::manifest();
    if committed == expected {
        println!("{path} matches the benchmark's table");
        return Ok(true);
    }
    for (n, (have, want)) in committed.lines().zip(expected.lines()).enumerate() {
        if have != want {
            eprintln!("{path}:{}: committed `{have}`\n  the binary emits `{want}`", n + 1);
        }
    }
    if committed.lines().count() != expected.lines().count() {
        eprintln!("{path}: line counts differ");
    }
    Ok(false)
}
