//! # mpart-cli — command-line tools for Method Partitioning
//!
//! The `mpart` binary lets you work with handler programs written in the
//! textual IR without writing any Rust:
//!
//! ```text
//! mpart fmt <file>                 pretty-print the canonical form
//! mpart run <file> <fn> [args..]   interpret a function (stdlib loaded)
//! mpart analyze <file> <fn> [--model data-size|exec-time|power] [--inline]
//! mpart codegen <file> <fn>        print the generated modulator/demodulator
//! mpart split <file> <fn> --pse N [args..]
//!                                  run partitioned at PSE N and show the wire
//! mpart trace <file> <fn> [args..] instruction-level execution trace
//! mpart trace <file> <fn> --session [args..]
//!                                  run a chaos session, dump the trace ring
//! mpart stats <file> <fn> [args..] run a chaos session, dump the metrics
//! mpart serve <file> <fn> [args..] --sessions N
//!                                  run N concurrent sessions over a shared
//!                                  worker pool and analysis cache
//! mpart route <file> <fn> [args..] --nodes N
//!                                  route sessions across N loopback-TCP
//!                                  cluster nodes; --kill K crashes node K
//!                                  mid-run and shows the failover;
//!                                  --drain D scales node D down after the
//!                                  run and removes it from the ring
//! mpart stats <file> <fn> [args..] --cluster
//!                                  run a node-kill drill on an in-process
//!                                  cluster, dump the aggregated metrics
//! mpart deadletter <file> <fn> [args..] --poison SEQ
//!                                  run a chaos session with a poisoned
//!                                  envelope and dump the quarantine ring
//! mpart help | --help | -h         print the usage banner
//! ```
//!
//! Arguments are parsed as ints, floats, `true`/`false`, `null`, or
//! strings. Native builtins referenced by the program are stubbed with
//! no-ops that echo their invocation, so any handler can be driven from
//! the command line.
//!
//! `stats` and `trace --session` drive the handler through a seeded fault
//! storm (drops, duplicates, reordering, corruption, and a scheduled
//! partition) on a supervised virtual-time wire, then print the handler's
//! observability surface: the metrics registry snapshot or the trace-event
//! ring. `--json` switches either to the machine-readable export, and
//! `--messages`/`--seed` control the storm.

use std::fmt::Write as _;
use std::sync::Arc;

use mpart::codegen::{demodulator_text, generated_sizes, modulator_text};
use mpart::journal::SessionJournal;
use mpart::profile::TriggerPolicy;
use mpart::reconfig::plan_through;
use mpart::router::{LocalNode, Router, RouterConfig, SessionSpec};
use mpart::session::{SessionConfig, SessionManager};
use mpart::PartitionedHandler;
use mpart_analysis::cache::AnalysisCache;
use mpart_cost::{CostModel, DataSizeModel, ExecTimeModel, PowerModel};
use mpart_ir::instr::{Instr, Rvalue};
use mpart_ir::interp::{BuiltinRegistry, ExecCtx, Interp};
use mpart_ir::parse::parse_program;
use mpart_ir::pretty::program_to_string;
use mpart_ir::stdlib::register_stdlib;
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::node::{NodeServer, TcpNode};
use mpart_jecho::{RetryPolicy, SimConfig, SimSession};
use mpart_simnet::{FaultPlan, Host, Link, SimTime};

/// A CLI failure: either a usage error or an underlying IR error.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// The program failed to parse, analyze, or run.
    Ir(IrError),
    /// A file could not be read.
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Ir(e) => write!(f, "{e}"),
            CliError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<IrError> for CliError {
    fn from(e: IrError) -> Self {
        CliError::Ir(e)
    }
}

/// The usage banner.
pub const USAGE: &str = "usage:
  mpart fmt <file>
  mpart run <file> <fn> [args..]
  mpart analyze <file> <fn> [--model data-size|exec-time|power] [--inline]
  mpart codegen <file> <fn> [--model ...] [--inline]
  mpart split <file> <fn> --pse <N> [args..]
  mpart trace <file> <fn> [args..] [--session] [--messages <N>] [--seed <N>] [--json]
  mpart stats <file> <fn> [args..] [--model ...] [--messages <N>] [--seed <N>] [--json]
  mpart stats <file> <fn> [args..] --cluster [--nodes <N>] [--sessions <N>] [--messages <N>] [--kill <NODE>] [--drain <NODE>] [--json]
  mpart serve <file> <fn> [args..] [--sessions <N>] [--workers <N>] [--messages <N>] [--queue <N>] [--journal <path>] [--model ...] [--canary <K>] [--guard <pct>]
  mpart route <file> <fn> [args..] [--nodes <N>] [--sessions <N>] [--messages <N>] [--kill <NODE>] [--drain <NODE>] [--ports <p1,p2,..>] [--model ...] [--canary <K>] [--guard <pct>]
  mpart deadletter <file> <fn> [args..] [--messages <N>] [--seed <N>] [--poison <SEQ>] [--json]
  mpart help";

/// Entry point: executes `args` (without the program name) and returns
/// the output text.
///
/// # Errors
///
/// Returns [`CliError`] for bad usage, unreadable files, or failing
/// programs.
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| CliError::Usage(USAGE.into()))?.as_str();
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(format!("{USAGE}\n"));
    }
    if flags_of(command, &[]).is_none() {
        return Err(CliError::Usage(format!("unknown command `{command}`\n{USAGE}")));
    }
    let file = next(&mut it, "file")?;
    if command == "fmt" {
        let rest: Vec<String> = it.cloned().collect();
        event_args(&rest, NO_FLAGS)?;
        return Ok(program_to_string(&*load(&file)?));
    }
    let func = next(&mut it, "function")?;
    let rest: Vec<String> = it.cloned().collect();
    let args = event_args(&rest, flags_of(command, &rest).expect("a known command"))?;
    match command {
        "run" => cmd_run(&file, &func, args),
        "analyze" => cmd_analyze(&file, &func, &rest),
        "codegen" => cmd_codegen(&file, &func, &rest),
        "split" => cmd_split(&file, &func, &rest, args),
        "trace" if has_flag(&rest, "--session") => cmd_trace_session(&file, &func, &rest, &args),
        "trace" => cmd_trace(&file, &func, args),
        "stats" if has_flag(&rest, "--cluster") => cmd_stats_cluster(&file, &func, &rest, &args),
        "stats" => cmd_stats(&file, &func, &rest, &args),
        "serve" => cmd_serve(&file, &func, &rest, args),
        "route" => cmd_route(&file, &func, &rest, &args),
        _ => cmd_deadletter(&file, &func, &rest, &args),
    }
}

/// The flags one subcommand takes: those followed by a value, then bare
/// switches.
type Flags = (&'static [&'static str], &'static [&'static str]);

/// A subcommand that takes no flags.
const NO_FLAGS: Flags = (&[], &[]);

/// The flags of `command` (whose trailing arguments are `rest`), or `None`
/// for an unknown command.
fn flags_of(command: &str, rest: &[String]) -> Option<Flags> {
    const CHAOS: &[&str] = &["--model", "--messages", "--seed", "--poison"];
    Some(match command {
        "fmt" | "run" => NO_FLAGS,
        "analyze" | "codegen" => (&["--model"], &["--inline"]),
        "split" => (&["--pse"], &[]),
        "trace" if has_flag(rest, "--session") => (CHAOS, &["--session", "--json"]),
        "trace" => NO_FLAGS,
        "stats" if has_flag(rest, "--cluster") => (
            &["--model", "--nodes", "--sessions", "--messages", "--kill", "--drain"],
            &["--cluster", "--json"],
        ),
        "stats" => (CHAOS, &["--cluster", "--json"]),
        "serve" => (
            &[
                "--model",
                "--sessions",
                "--workers",
                "--messages",
                "--queue",
                "--journal",
                "--canary",
                "--guard",
            ],
            &[],
        ),
        "route" => (
            &[
                "--model",
                "--nodes",
                "--sessions",
                "--messages",
                "--kill",
                "--drain",
                "--ports",
                "--canary",
                "--guard",
            ],
            &[],
        ),
        "deadletter" => (CHAOS, &["--json"]),
        _ => return None,
    })
}

fn next(it: &mut std::slice::Iter<'_, String>, what: &str) -> Result<String, CliError> {
    it.next().cloned().ok_or_else(|| CliError::Usage(format!("missing <{what}>\n{USAGE}")))
}

fn load(path: &str) -> Result<Arc<Program>, CliError> {
    let source = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Ok(Arc::new(parse_program(&source)?))
}

/// Parses a CLI value literal.
pub fn parse_value(text: &str) -> Value {
    match text {
        "null" => Value::Null,
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => {
            if let Ok(i) = text.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(x) = text.parse::<f64>() {
                Value::Float(x)
            } else {
                Value::str(text)
            }
        }
    }
}

fn model_from(rest: &[String]) -> Result<Arc<dyn CostModel>, CliError> {
    let name = rest
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
        .unwrap_or("data-size");
    match name {
        "data-size" => Ok(Arc::new(DataSizeModel::new())),
        "exec-time" => Ok(Arc::new(ExecTimeModel::new())),
        "power" => Ok(Arc::new(PowerModel::new())),
        other => Err(CliError::Usage(format!(
            "unknown cost model `{other}` (data-size, exec-time, power)"
        ))),
    }
}

/// Builds a registry with the stdlib plus a stub for every native builtin
/// the program references. Echoing stubs report each invocation on stderr;
/// quiet stubs (used by the chaos-session commands, which invoke natives
/// hundreds of times) just return `null`.
fn stubbed_builtins(program: &Program, echo: bool) -> BuiltinRegistry {
    let mut registry = BuiltinRegistry::new();
    register_stdlib(&mut registry);
    for f in program.functions() {
        for instr in &f.instrs {
            if let Instr::Assign { rvalue: Rvalue::InvokeNative { callee, .. }, .. } = instr {
                if !registry.contains(callee) {
                    if echo {
                        let name = callee.clone();
                        registry.register_native(callee.clone(), 1, move |heap, args| {
                            let digest = mpart_ir::marshal::deep_digest_many(heap, args)
                                .unwrap_or_else(|_| "?".into());
                            eprintln!("[native {name}] {digest}");
                            Ok(Value::Null)
                        });
                    } else {
                        registry.register_native(callee.clone(), 1, |_, _| Ok(Value::Null));
                    }
                }
            }
        }
    }
    registry
}

/// Builds a context with the stdlib plus echoing stubs for every native
/// builtin the program references.
fn stubbed_ctx(program: &Program) -> ExecCtx {
    ExecCtx::with_builtins(program, stubbed_builtins(program, true))
}

fn cmd_run(file: &str, func: &str, args: Vec<Value>) -> Result<String, CliError> {
    let program = load(file)?;
    let mut ctx = stubbed_ctx(&program);
    let ret = Interp::new(&program).run(&mut ctx, func, args)?;
    let mut out = String::new();
    let _ = writeln!(out, "return: {}", ret.map(|v| v.to_string()).unwrap_or("(void)".into()));
    let _ = writeln!(out, "work units: {}", ctx.work);
    let _ = writeln!(out, "native calls: {}", ctx.trace.len());
    for t in &ctx.trace {
        let _ = writeln!(out, "  {}({})", t.callee, t.args_digest);
    }
    Ok(out)
}

/// Applies `--inline` if requested: interprocedural UG expansion.
fn maybe_inline(
    program: Arc<Program>,
    func: &str,
    rest: &[String],
) -> Result<Arc<Program>, CliError> {
    if rest.iter().any(|a| a == "--inline") {
        Ok(Arc::new(mpart_ir::inline::inlined_program(
            &program,
            func,
            mpart_ir::inline::InlineOptions::default(),
        )?))
    } else {
        Ok(program)
    }
}

fn cmd_analyze(file: &str, func: &str, rest: &[String]) -> Result<String, CliError> {
    let program = maybe_inline(load(file)?, func, rest)?;
    let model = model_from(rest)?;
    let model_name = model.name().to_string();
    let handler = PartitionedHandler::analyze(Arc::clone(&program), func, model)?;
    let analysis = handler.analysis();
    let f = handler.func();
    let mut out = String::new();
    let _ = writeln!(out, "function `{func}` under cost model `{model_name}`");
    let _ = writeln!(
        out,
        "{} instructions, {} stop nodes, {} target paths",
        analysis.ug.len(),
        analysis.stops.len(),
        analysis.dag().path_count(),
    );
    let _ = writeln!(out, "potential split edges:");
    for (i, pse) in analysis.pses().iter().enumerate() {
        let vars: Vec<&str> = pse.inter.iter().map(|v| f.var_name(*v)).collect();
        let _ = writeln!(
            out,
            "  PSE {i}: {} ships {{{}}}  cost {:?}",
            pse.edge,
            vars.join(", "),
            pse.static_cost
        );
    }
    let _ = writeln!(out, "initial plan: {:?}", handler.plan().active());
    Ok(out)
}

fn cmd_codegen(file: &str, func: &str, rest: &[String]) -> Result<String, CliError> {
    let program = maybe_inline(load(file)?, func, rest)?;
    let model = model_from(rest)?;
    let handler = PartitionedHandler::analyze(Arc::clone(&program), func, model)?;
    let sizes = generated_sizes(&handler);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// {} PSEs; modulator {} B, demodulator {} B, redirect classes {} B",
        sizes.pses, sizes.modulator_bytes, sizes.demodulator_bytes, sizes.redirect_classes_bytes
    );
    out.push_str(&modulator_text(&handler));
    out.push('\n');
    out.push_str(&demodulator_text(&handler));
    Ok(out)
}

fn cmd_split(
    file: &str,
    func: &str,
    rest: &[String],
    args: Vec<Value>,
) -> Result<String, CliError> {
    let program = load(file)?;
    let pse_idx = rest
        .iter()
        .position(|a| a == "--pse")
        .and_then(|i| rest.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| CliError::Usage("split requires `--pse <N>`".into()))?;

    let handler =
        PartitionedHandler::analyze(Arc::clone(&program), func, Arc::new(DataSizeModel::new()))?;
    let analysis = handler.analysis();
    if pse_idx >= analysis.pses().len() {
        return Err(CliError::Usage(format!(
            "PSE {pse_idx} out of range (handler has {})",
            analysis.pses().len()
        )));
    }
    handler.plan().install(&plan_through(analysis, pse_idx)?);
    handler.plan().validate_cut(analysis)?;

    let mut sender = stubbed_ctx(&program);
    let run = handler.modulator().handle(&mut sender, args)?;
    let mut receiver = stubbed_ctx(&program);
    let out_run = handler.demodulator().handle(&mut receiver, &run.message)?;

    let mut out = String::new();
    let _ = writeln!(out, "plan: {:?}", handler.plan().active());
    let _ = writeln!(out, "split at PSE {}", run.message.pse);
    let _ = writeln!(out, "continuation wire size: {} bytes", run.message.wire_size());
    let _ = writeln!(out, "modulator work: {}", run.mod_work);
    let _ = writeln!(out, "demodulator work: {}", out_run.demod_work);
    let _ =
        writeln!(out, "return: {}", out_run.ret.map(|v| v.to_string()).unwrap_or("(void)".into()));
    Ok(out)
}

/// Whether `rest` carries the given boolean flag.
fn has_flag(rest: &[String], flag: &str) -> bool {
    rest.iter().any(|a| a == flag)
}

/// Parses `--<flag> <N>` from `rest`, falling back to `default`.
fn opt_u64(rest: &[String], flag: &str, default: u64) -> Result<u64, CliError> {
    match rest.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => rest
            .get(i + 1)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| CliError::Usage(format!("`{flag}` requires a number"))),
    }
}

/// Parses `--canary <K>` / `--guard <pct>` into a plan-guard config:
/// `K` canary envelopes watched after every plan commit, rolled back on
/// a `pct`-percent regression over the pre-switch baseline. `None` when
/// neither flag is given (switches stay unguarded, the pre-§16
/// behavior); invalid values are one-line usage errors (exit 2).
fn guard_opts(rest: &[String]) -> Result<Option<mpart::reconfig::GuardConfig>, CliError> {
    let has_canary = has_flag(rest, "--canary");
    let has_guard = has_flag(rest, "--guard");
    if !has_canary && !has_guard {
        return Ok(None);
    }
    let mut config = mpart::reconfig::GuardConfig::default();
    if has_canary {
        let k = opt_u64(rest, "--canary", 0)?;
        if k == 0 {
            return Err(CliError::Usage(
                "`--canary` must watch at least 1 envelope (omit the flag to disable the guard)"
                    .into(),
            ));
        }
        config.canary = k;
    }
    if has_guard {
        let i = rest.iter().position(|a| a == "--guard").expect("checked by has_flag");
        let pct = rest
            .get(i + 1)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| CliError::Usage("`--guard` requires a number".into()))?;
        if !(pct > 0.0 && pct <= 100.0) {
            return Err(CliError::Usage(format!(
                "`--guard {pct}` is out of range (breach threshold must be in (0, 100] percent)"
            )));
        }
        config.breach_pct = pct;
    }
    Ok(Some(config))
}

/// Parses `--<flag> <value>` from `rest`; `None` when the flag is absent.
fn opt_str(rest: &[String], flag: &str) -> Result<Option<String>, CliError> {
    match rest.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => rest
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .map(Some)
            .ok_or_else(|| CliError::Usage(format!("`{flag}` requires a value"))),
    }
}

/// The positional event arguments left after stripping the subcommand's
/// `flags`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for a `--` token the subcommand does not
/// take, so a typo or a misplaced flag is refused rather than ignored or
/// delivered as a string argument. Negative numbers start with a single
/// `-` and stay arguments.
fn event_args(rest: &[String], (with_value, bare): Flags) -> Result<Vec<Value>, CliError> {
    let mut args = Vec::new();
    let mut tokens = rest.iter();
    while let Some(a) = tokens.next() {
        if with_value.contains(&a.as_str()) {
            tokens.next();
        } else if !a.starts_with("--") {
            args.push(parse_value(a));
        } else if !bare.contains(&a.as_str()) {
            return Err(CliError::Usage(format!("unknown flag `{a}`\n{USAGE}")));
        }
    }
    Ok(args)
}

/// Drives `func` through a seeded chaos storm on a supervised virtual-time
/// wire: drops, duplicates, reordering, corruption, and a scheduled
/// partition long enough to exhaust the degradation budget. Every message
/// carries the same CLI-supplied arguments; natives are quiet stubs.
fn run_chaos_session(
    file: &str,
    func: &str,
    rest: &[String],
    args: &[Value],
) -> Result<SimSession, CliError> {
    let program = load(file)?;
    let model = model_from(rest)?;
    let messages = opt_u64(rest, "--messages", 30)?.max(1);
    let seed = opt_u64(rest, "--seed", 7)?;

    // Mirrors the chaos suite's storm: every fault class plus an outage
    // window sized to trip the failure budget and recover before the end.
    let outage_start = messages * 2 / 3;
    let mut storm = FaultPlan::new(seed)
        .with_drop(0.12)
        .with_duplicate(0.10)
        .with_reorder(0.10)
        .with_corrupt(0.15)
        .with_partition(outage_start..outage_start + 16);
    // `--poison <SEQ>` marks one envelope as deterministically panicking
    // on every demodulation attempt; it can only leave the retransmission
    // window through quarantine (see `mpart deadletter`).
    let poison = opt_u64(rest, "--poison", 0)?;
    if poison > 0 {
        storm = storm.with_poison(poison);
    }
    let link = Link::new("lan", SimTime::from_millis(1), 1_000_000.0).with_fault_plan(storm);
    let mut session = SimSession::adaptive(
        Arc::clone(&program),
        func,
        model,
        stubbed_builtins(&program, false),
        stubbed_builtins(&program, false),
        SimConfig::new(
            Host::new("sender", 760_000.0),
            link,
            Host::new("receiver", 281_000.0),
            TriggerPolicy::Rate(2),
        )
        .with_degradation(3, 3),
    )?;
    for _ in 0..messages {
        session.deliver(|_| Ok(args.to_vec()))?;
    }
    session.drain(500)?;
    Ok(session)
}

fn cmd_stats(file: &str, func: &str, rest: &[String], args: &[Value]) -> Result<String, CliError> {
    let session = run_chaos_session(file, func, rest, args)?;
    if has_flag(rest, "--json") {
        return Ok(session.obs().metrics_json().render());
    }
    let mut out = String::new();
    let _ = writeln!(out, "chaos session over `{func}`:");
    let _ = writeln!(
        out,
        "  {} delivered, {} retransmissions, {} lost, {} corrupted, {} duplicates suppressed",
        session.applied_results().len(),
        session.retransmissions(),
        session.frames_lost(),
        session.frames_corrupted(),
        session.duplicates_suppressed(),
    );
    let _ = writeln!(
        out,
        "  {} plan installs, {} degradations, {} promotions",
        session.plan_installs(),
        session.degradations(),
        session.promotions(),
    );
    let _ = writeln!(out, "metrics:");
    for line in session.obs().registry().snapshot().render_text().lines() {
        let _ = writeln!(out, "  {line}");
    }
    Ok(out)
}

/// Runs `--sessions` concurrent sessions of `func` over a shared worker
/// pool: every handler is built through the manager's shared analysis
/// cache (one miss, the rest hits), `--messages` events round-robin
/// across the sessions, and the summary reports dispatch and cache
/// statistics. This is the multi-session "server" face of the runtime —
/// see `ARCHITECTURE.md` §"Throughput layer".
fn cmd_serve(
    file: &str,
    func: &str,
    rest: &[String],
    args: Vec<Value>,
) -> Result<String, CliError> {
    let program = load(file)?;
    let model = model_from(rest)?;
    // Invalid configurations are rejected up front with a one-line usage
    // error instead of being silently clamped or panicking deep in the
    // worker pool.
    let sessions = opt_u64(rest, "--sessions", 4)?;
    if sessions == 0 {
        return Err(CliError::Usage("`--sessions` must be at least 1".into()));
    }
    let sessions = sessions as usize;
    let queue = opt_u64(rest, "--queue", 0)?;
    if has_flag(rest, "--queue") && queue == 0 {
        return Err(CliError::Usage(
            "`--queue` must be at least 1 (zero-capacity queues shed every delivery)".into(),
        ));
    }
    let workers = opt_u64(rest, "--workers", 0)? as usize;
    let messages = opt_u64(rest, "--messages", 8)?.max(1);

    let mut config = SessionConfig::default();
    if workers > 0 {
        config = config.with_workers(workers);
    }
    if queue > 0 {
        config = config.with_ingress_capacity(queue as usize);
    }
    if let Some(path) = opt_str(rest, "--journal")? {
        let journal = mpart::journal::SessionJournal::at_path(&path)?;
        config = config.with_journal(Arc::new(journal));
    }
    let guard = guard_opts(rest)?;
    if let Some(g) = guard {
        config = config.with_guard(g);
    }
    let mut manager = SessionManager::new(config);
    for _ in 0..sessions {
        manager.open_session(
            Arc::clone(&program),
            func,
            Arc::clone(&model),
            stubbed_builtins(&program, false),
            stubbed_builtins(&program, false),
        )?;
    }

    let mut last: Vec<Option<mpart::session::SessionOutcome>> = vec![None; sessions];
    for _ in 0..messages {
        for (s, slot) in last.iter_mut().enumerate() {
            let event = args.clone();
            *slot = Some(manager.deliver(s, move |_| Ok(event))?);
        }
    }

    let mut out = String::new();
    let _ =
        writeln!(out, "served `{func}`: {sessions} sessions over {} workers", manager.workers());
    if let Some(g) = guard {
        let rollbacks: u64 = (0..sessions)
            .filter_map(|s| manager.handler(s))
            .map(|h| h.obs().registry().snapshot().counter_sum("plan_rollbacks_total"))
            .sum();
        let _ = writeln!(
            out,
            "  plan guard: {}-envelope canary, {}% breach threshold, {rollbacks} rollbacks",
            g.canary, g.breach_pct,
        );
    }
    let _ = writeln!(out, "  delivered {} messages ({messages} per session)", manager.processed());
    let cache = manager.cache();
    let _ = writeln!(
        out,
        "  analysis cache: {} misses, {} hits (hit rate {:.2})",
        cache.misses(),
        cache.hits(),
        cache.hit_rate(),
    );
    for (s, outcome) in last.iter().enumerate() {
        if let Some(o) = outcome {
            let _ = writeln!(
                out,
                "  session {s}: epoch {}, last split PSE {}, last wire {} bytes",
                o.epoch, o.split_pse, o.wire_bytes
            );
        }
    }
    manager.shutdown();
    Ok(out)
}

/// Cluster sizing shared by `mpart route` and `mpart stats --cluster`,
/// validated up front with one-line usage errors (exit 2), mirroring
/// `mpart serve`.
struct ClusterOpts {
    nodes: usize,
    sessions: usize,
    messages: u64,
    kill: Option<usize>,
    drain: Option<usize>,
}

fn cluster_opts(rest: &[String]) -> Result<ClusterOpts, CliError> {
    let nodes = opt_u64(rest, "--nodes", 2)?;
    if nodes == 0 {
        return Err(CliError::Usage("`--nodes` must be at least 1".into()));
    }
    let sessions = opt_u64(rest, "--sessions", 4)?;
    if sessions == 0 {
        return Err(CliError::Usage("`--sessions` must be at least 1".into()));
    }
    let messages = opt_u64(rest, "--messages", 8)?.max(1);
    let kill = match has_flag(rest, "--kill") {
        false => None,
        true => {
            let k = opt_u64(rest, "--kill", 0)?;
            if k >= nodes {
                return Err(CliError::Usage(format!(
                    "`--kill {k}` is out of range (cluster has {nodes} nodes, numbered from 0)"
                )));
            }
            if nodes == 1 {
                return Err(CliError::Usage(
                    "`--kill` with a single node leaves no survivors to migrate to".into(),
                ));
            }
            Some(k as usize)
        }
    };
    let drain = match has_flag(rest, "--drain") {
        false => None,
        true => {
            let d = opt_u64(rest, "--drain", 0)?;
            if d >= nodes {
                return Err(CliError::Usage(format!(
                    "`--drain {d}` is out of range (cluster has {nodes} nodes, numbered from 0)"
                )));
            }
            if nodes == 1 {
                return Err(CliError::Usage(
                    "`--drain` with a single node leaves no survivors to migrate to".into(),
                ));
            }
            Some(d as usize)
        }
    };
    Ok(ClusterOpts { nodes: nodes as usize, sessions: sessions as usize, messages, kill, drain })
}

/// Parses `--ports p1,p2,..`: one non-zero port per node, no duplicates.
fn parse_ports(spec: &str, nodes: usize) -> Result<Vec<u16>, CliError> {
    let mut ports: Vec<u16> = Vec::new();
    for token in spec.split(',') {
        let port = token
            .trim()
            .parse::<u16>()
            .map_err(|_| CliError::Usage(format!("`--ports` entry `{token}` is not a port")))?;
        if port == 0 {
            return Err(CliError::Usage("`--ports` entries must be non-zero".into()));
        }
        if ports.contains(&port) {
            return Err(CliError::Usage(format!("`--ports` lists port {port} twice")));
        }
        ports.push(port);
    }
    if ports.len() != nodes {
        return Err(CliError::Usage(format!(
            "`--ports` names {} ports for {nodes} nodes",
            ports.len()
        )));
    }
    Ok(ports)
}

/// Opens `sessions` routed sessions, drives `messages` rounds of the same
/// event through each, heartbeats every round, and crashes node
/// `opts.kill` halfway through via `kill` — the router's inline failover
/// and the dead node's heartbeat misses both show up in the summary.
fn drive_cluster(
    router: &mut Router,
    spec: &SessionSpec,
    opts: &ClusterOpts,
    kill: Option<usize>,
    args: &[Value],
    crash: &mut dyn FnMut(usize),
) -> Result<Vec<(u64, mpart::session::SessionOutcome)>, CliError> {
    let mut gids = Vec::with_capacity(opts.sessions);
    for _ in 0..opts.sessions {
        gids.push(router.open_session(spec.clone())?);
    }
    let kill_round = opts.messages / 2;
    let mut last = Vec::new();
    for round in 0..opts.messages {
        if round == kill_round {
            if let Some(k) = kill {
                crash(k);
            }
        }
        last.clear();
        for gid in &gids {
            last.push((*gid, router.deliver(*gid, args.to_vec())?));
        }
        router.heartbeat()?;
    }
    Ok(last)
}

/// Routes sessions across `--nodes` in-process cluster nodes on real
/// loopback TCP: each node is a [`NodeServer`] (a `SessionManager` behind
/// a line protocol) sharing one journal and analysis cache, and the
/// router dials them as [`TcpNode`] endpoints with supervised backoff.
/// `--kill K` crashes node K halfway through the run; the affected
/// sessions migrate to survivors from the journal with their ack
/// watermarks intact and zero re-analysis. `--drain D` scales node D
/// down after the run: every hosted session migrates away, the shared
/// journal compacts to the live set, and the node leaves the ring. See
/// `DESIGN.md` §"Multi-host routing & failover".
fn cmd_route(file: &str, func: &str, rest: &[String], args: &[Value]) -> Result<String, CliError> {
    let program = load(file)?;
    let model = model_from(rest)?;
    let opts = cluster_opts(rest)?;
    let ports: Option<Vec<u16>> = match opt_str(rest, "--ports")? {
        Some(spec) => Some(parse_ports(&spec, opts.nodes)?),
        None => None,
    };

    let journal = Arc::new(SessionJournal::in_memory());
    let cache = Arc::new(AnalysisCache::new(64));
    let mut config = SessionConfig::default().with_journal(Arc::clone(&journal));
    if let Some(g) = guard_opts(rest)? {
        // Every node runs the same guard config, so a mid-canary session
        // that migrates on failover resumes its window at the new host.
        config = config.with_guard(g);
    }
    let mut servers = Vec::with_capacity(opts.nodes);
    for i in 0..opts.nodes {
        let port = ports.as_ref().map_or(0, |p| p[i]);
        servers.push(
            NodeServer::spawn_on(
                format!("node-{i}"),
                port,
                Arc::clone(&program),
                config.clone(),
                Arc::clone(&cache),
                stubbed_builtins(&program, false),
                stubbed_builtins(&program, false),
            )
            .map_err(CliError::Ir)?,
        );
    }
    let mut router = Router::new(RouterConfig::default(), journal, cache);
    for server in &servers {
        router.add_node(Box::new(TcpNode::new(
            server.name().to_string(),
            server.port(),
            RetryPolicy::default(),
        )));
    }
    let spec = SessionSpec {
        program: Arc::clone(&program),
        func: func.into(),
        model,
        sender_builtins: stubbed_builtins(&program, false),
        receiver_builtins: stubbed_builtins(&program, false),
    };
    let last =
        drive_cluster(&mut router, &spec, &opts, opts.kill, args, &mut |k| servers[k].kill())?;
    let drained = match opts.drain {
        Some(d) => Some((d, router.drain_node(d)?)),
        None => None,
    };

    let mut out = String::new();
    let _ = writeln!(out, "routed `{func}`: {} sessions over {} nodes", opts.sessions, opts.nodes);
    for (i, server) in servers.iter().enumerate() {
        let _ = writeln!(
            out,
            "  node {i} [{} @127.0.0.1:{}] {}{}{}",
            server.name(),
            server.port(),
            if router.node_is_up(i) { "up" } else { "down" },
            if opts.kill == Some(i) {
                format!(" (killed at round {})", opts.messages / 2)
            } else {
                String::new()
            },
            if opts.drain == Some(i) { " (drained, off the ring)" } else { "" },
        );
    }
    if let Some((node, moved)) = drained {
        let _ = writeln!(
            out,
            "  drained node {node}: {moved} sessions migrated away, journal compacted to {} records",
            router.journal().len(),
        );
    }
    let _ = writeln!(
        out,
        "  delivered {} messages ({} rounds x {} sessions)",
        opts.messages * opts.sessions as u64,
        opts.messages,
        opts.sessions,
    );
    let snapshot = router.obs().registry().snapshot();
    let _ = writeln!(
        out,
        "  failovers {}, sessions migrated {}, route errors {}, heartbeat misses {}",
        snapshot.counter_sum("node_failovers_total"),
        snapshot.counter_sum("sessions_migrated_total"),
        snapshot.counter_sum("route_errors_total"),
        snapshot.counter_sum("node_heartbeat_misses_total"),
    );
    let cache = router.cache();
    let _ = writeln!(
        out,
        "  analysis cache: {} misses, {} hits (hit rate {:.2})",
        cache.misses(),
        cache.hits(),
        cache.hit_rate(),
    );
    for (gid, outcome) in &last {
        let _ = writeln!(
            out,
            "  session {gid}: node {}, epoch {}, seq {}, last wire {} bytes",
            router.placement(*gid).expect("routed session has a placement"),
            outcome.epoch,
            outcome.seq,
            outcome.wire_bytes,
        );
    }
    for server in servers {
        server.shutdown();
    }
    Ok(out)
}

/// `mpart stats --cluster`: drives a node-kill drill on an in-process
/// [`LocalNode`] cluster and prints the *aggregated* observability
/// surface — the router's own counters and gauges plus every node's
/// metrics with a `node="i"` label injected, led by a per-node summary
/// of the placement-authoritative session counts (what the router will
/// actually deliver to) next to the pending-orphan column, so a
/// survived-node failover's stranded copies are never double-counted as
/// live sessions. Kills node 0 halfway by default (when the cluster has
/// a survivor); `--kill K` picks the victim; `--drain D` scales node D
/// down after the drill.
fn cmd_stats_cluster(
    file: &str,
    func: &str,
    rest: &[String],
    args: &[Value],
) -> Result<String, CliError> {
    let program = load(file)?;
    let model = model_from(rest)?;
    let opts = cluster_opts(rest)?;
    let kill = opts.kill.or(if opts.nodes >= 2 { Some(0) } else { None });

    let journal = Arc::new(SessionJournal::in_memory());
    let cache = Arc::new(AnalysisCache::new(64));
    let config = SessionConfig::default().with_journal(Arc::clone(&journal));
    let nodes: Vec<LocalNode> = (0..opts.nodes)
        .map(|i| LocalNode::new(format!("node-{i}"), config.clone(), Arc::clone(&cache)))
        .collect();
    let mut router = Router::new(RouterConfig::default(), journal, cache);
    for node in &nodes {
        router.add_node(Box::new(node.clone()));
    }
    let spec = SessionSpec {
        program: Arc::clone(&program),
        func: func.into(),
        model,
        sender_builtins: stubbed_builtins(&program, false),
        receiver_builtins: stubbed_builtins(&program, false),
    };
    drive_cluster(&mut router, &spec, &opts, kill, args, &mut |k| nodes[k].kill())?;
    if let Some(d) = opts.drain {
        router.drain_node(d)?;
    }

    let stats = router.cluster_stats();
    if has_flag(rest, "--json") {
        let doc = mpart_obs::Json::Obj(vec![(
            "cluster".into(),
            mpart_obs::Json::Obj(
                stats.into_iter().map(|(k, v)| (k, mpart_obs::Json::F64(v))).collect(),
            ),
        )]);
        return Ok(doc.render());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster drill over `{func}`: {} sessions, {} nodes{}{}",
        opts.sessions,
        opts.nodes,
        match kill {
            Some(k) => format!(", node {k} killed at round {}", opts.messages / 2),
            None => String::new(),
        },
        match opts.drain {
            Some(d) => format!(", node {d} drained after the run"),
            None => String::new(),
        },
    );
    // Placement-authoritative per-node counts with the orphan column:
    // `placed` is what the router will deliver to; `orphaned` copies are
    // stranded slots pending reclamation, never counted as live.
    let row = |name: &str, node: usize| {
        stats
            .iter()
            .find(|(n, _)| *n == format!("{name}{{node=\"{node}\"}}"))
            .map_or(0.0, |(_, v)| *v)
    };
    let _ = writeln!(out, "  node  placed  orphaned  state");
    for i in 0..opts.nodes {
        let state = if opts.drain == Some(i) {
            "drained"
        } else if router.node_is_up(i) {
            "up"
        } else {
            "down"
        };
        let _ = writeln!(
            out,
            "  {i:<4}  {:<6}  {:<8}  {state}",
            row("router_placed_sessions", i),
            row("router_orphan_sessions", i),
        );
    }
    for (identity, value) in stats {
        let _ = writeln!(out, "  {identity} {value}");
    }
    Ok(out)
}

/// Runs a chaos session with one deterministically poisoned envelope and
/// dumps the dead-letter ring: the quarantined sequence numbers, their
/// failure class, and how many retries each burned before the ack
/// watermark was allowed past them. Defaults `--poison` to the middle of
/// the message window so the command demonstrates quarantine out of the
/// box; `--poison <SEQ>` picks the envelope explicitly.
fn cmd_deadletter(
    file: &str,
    func: &str,
    rest: &[String],
    args: &[Value],
) -> Result<String, CliError> {
    let mut rest = rest.to_vec();
    if !has_flag(&rest, "--poison") {
        let messages = opt_u64(&rest, "--messages", 30)?.max(1);
        rest.push("--poison".into());
        rest.push(((messages / 2).max(1)).to_string());
    }
    // The poisoned envelope panics by design on every retry; silence the
    // default hook so the quarantine report is not drowned in backtraces.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let session = run_chaos_session(file, func, &rest, args);
    std::panic::set_hook(previous_hook);
    let session = session?;
    let letters = session.dead_letters();
    if has_flag(&rest, "--json") {
        let entries: Vec<mpart_obs::Json> = letters
            .iter()
            .map(|l| {
                mpart_obs::Json::Obj(vec![
                    ("seq".into(), mpart_obs::Json::U64(l.seq)),
                    ("kind".into(), mpart_obs::Json::str(l.kind.label())),
                    ("failures".into(), mpart_obs::Json::U64(u64::from(l.failures))),
                    ("error".into(), mpart_obs::Json::str(&l.error)),
                ])
            })
            .collect();
        let doc = mpart_obs::Json::Obj(vec![
            ("dead_letters".into(), mpart_obs::Json::Arr(entries)),
            ("quarantined".into(), mpart_obs::Json::U64(session.quarantined())),
            ("handler_panics".into(), mpart_obs::Json::U64(session.handler_panics())),
            ("sheds".into(), mpart_obs::Json::U64(session.sheds())),
            ("deadline_timeouts".into(), mpart_obs::Json::U64(session.deadline_timeouts())),
        ]);
        return Ok(doc.render());
    }
    let mut out = String::new();
    let _ = writeln!(out, "dead-letter ring of a chaos session over `{func}`:");
    if letters.is_empty() {
        let _ = writeln!(out, "  (empty — no envelope exhausted its retry budget)");
    }
    for l in &letters {
        let _ = writeln!(
            out,
            "  seq {} [{}] after {} failures: {}",
            l.seq,
            l.kind.label(),
            l.failures,
            l.error,
        );
    }
    let _ = writeln!(
        out,
        "  {} quarantined, {} handler panics, {} sheds, {} deadline timeouts",
        session.quarantined(),
        session.handler_panics(),
        session.sheds(),
        session.deadline_timeouts(),
    );
    Ok(out)
}

fn cmd_trace_session(
    file: &str,
    func: &str,
    rest: &[String],
    args: &[Value],
) -> Result<String, CliError> {
    let session = run_chaos_session(file, func, rest, args)?;
    if has_flag(rest, "--json") {
        return Ok(session.obs().trace_json().render());
    }
    let mut out = String::new();
    let _ = writeln!(out, "trace ring of a chaos session over `{func}`:");
    out.push_str(&session.obs().trace().render_text());
    Ok(out)
}

/// Observer recording the executed edge sequence of the outer frame.
struct TraceObserver {
    edges: Vec<(usize, usize, u64)>, // (from, to, cumulative work)
}

impl mpart_ir::interp::EdgeObserver for TraceObserver {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        _vars: &[Value],
        _heap: &mpart_ir::heap::Heap,
        work: u64,
    ) -> mpart_ir::interp::EdgeAction {
        self.edges.push((from, to, work));
        mpart_ir::interp::EdgeAction::Continue
    }
}

fn cmd_trace(file: &str, func_name: &str, args: Vec<Value>) -> Result<String, CliError> {
    let program = load(file)?;
    let func = program.function_or_err(func_name)?;
    let mut ctx = stubbed_ctx(&program);
    let mut observer = TraceObserver { edges: Vec::new() };
    let outcome = Interp::new(&program).run_with_observer(&mut ctx, func, args, &mut observer)?;
    let ret = match outcome {
        mpart_ir::interp::Outcome::Finished(v) => v,
        mpart_ir::interp::Outcome::Suspended(_) => unreachable!("trace never suspends"),
    };

    let mut out = String::new();
    let _ = writeln!(out, "trace of `{func_name}` (outer frame; invocations are opaque):");
    // The first executed instruction is the start node; each observed edge
    // names the next one.
    let mut executed: Vec<(usize, u64)> = vec![(0, 0)];
    for (_, to, work) in &observer.edges {
        executed.push((*to, *work));
    }
    for (pc, work) in &executed {
        let _ = writeln!(
            out,
            "  [{work:>8}] {:>3}: {}",
            pc,
            mpart_ir::pretty::instr_to_string(&program, func, &func.instrs[*pc])
        );
    }
    let _ = writeln!(
        out,
        "return: {} after {} instructions, {} work units",
        ret.map(|v| v.to_string()).unwrap_or("(void)".into()),
        executed.len(),
        ctx.work
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn demo_file() -> tempfile_path::TempPath {
        tempfile_path::write(
            r#"
            class Pkt { n: int, body: ref }
            fn handle(event, scale) {
                ok = event instanceof Pkt
                if ok == 0 goto skip
                p = (Pkt) event
                s = p.n
                t = s * scale
                native emit(t)
                return t
            skip:
                return -1
            }
            "#,
        )
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile_path {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempPath(pub PathBuf);
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().unwrap()
            }
        }

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub fn write(contents: &str) -> TempPath {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("mpart-cli-test-{}-{n}.jmpl", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            TempPath(path)
        }
    }

    #[test]
    fn fmt_round_trips() {
        let file = demo_file();
        let out = execute(&args(&["fmt", file.as_str()])).unwrap();
        assert!(out.contains("fn handle"));
        assert!(parse_program(&out).is_ok(), "fmt output re-parses");
    }

    #[test]
    fn run_executes_with_stubbed_natives() {
        let file = demo_file();
        // A non-Pkt event takes the reject path.
        let out = execute(&args(&["run", file.as_str(), "handle", "5", "3"])).unwrap();
        assert!(out.contains("return: -1"), "{out}");
        assert!(out.contains("native calls: 0"));
    }

    #[test]
    fn analyze_lists_pses() {
        let file = demo_file();
        let out = execute(&args(&["analyze", file.as_str(), "handle"])).unwrap();
        assert!(out.contains("potential split edges"), "{out}");
        assert!(out.contains("PSE 0"), "{out}");
        let out2 =
            execute(&args(&["analyze", file.as_str(), "handle", "--model", "exec-time"])).unwrap();
        assert!(out2.contains("exec-time"));
    }

    #[test]
    fn analyze_with_inline_exposes_more_pses() {
        let file = tempfile_path::write(
            r#"
            fn helper(x) {
                a = x + 1
                b = a * 2
                c = b + 3
                return c
            }
            fn handle(v) {
                r = call helper(v)
                native out(r)
                return r
            }
            "#,
        );
        let plain = execute(&args(&["analyze", file.as_str(), "handle"])).unwrap();
        let inlined = execute(&args(&["analyze", file.as_str(), "handle", "--inline"])).unwrap();
        let count = |s: &str| s.matches("PSE ").count();
        assert!(
            count(&inlined) > count(&plain),
            "inlining exposes split edges inside the helper:\nplain:\n{plain}\ninlined:\n{inlined}"
        );
    }

    #[test]
    fn codegen_emits_both_halves() {
        let file = demo_file();
        let out = execute(&args(&["codegen", file.as_str(), "handle"])).unwrap();
        assert!(out.contains("__modulator"));
        assert!(out.contains("__demodulator"));
    }

    #[test]
    fn split_runs_partitioned() {
        let file = demo_file();
        let out =
            execute(&args(&["split", file.as_str(), "handle", "--pse", "0", "9", "2"])).unwrap();
        assert!(out.contains("return: -1") || out.contains("return: 18"), "{out}");
        assert!(out.contains("continuation wire size"), "{out}");
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(matches!(execute(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(execute(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(execute(&args(&["run", "/nonexistent.jmpl", "f"])), Err(CliError::Io(_))));
        let file = demo_file();
        assert!(matches!(
            execute(&args(&["split", file.as_str(), "handle", "--pse", "999"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            execute(&args(&["analyze", file.as_str(), "handle", "--model", "nope"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn trace_lists_executed_instructions() {
        let file = demo_file();
        // Reject path: instanceof, if, return -1.
        let out = execute(&args(&["trace", file.as_str(), "handle", "5", "2"])).unwrap();
        assert!(out.contains("instanceof"), "{out}");
        assert!(out.contains("return: -1"), "{out}");
        let lines = out.lines().filter(|l| l.trim_start().starts_with('[')).count();
        assert_eq!(lines, 3, "{out}");
    }

    #[test]
    fn stats_runs_chaos_session_and_reports_metrics() {
        let file = demo_file();
        // A Pkt-shaped handler driven with plain ints takes the reject
        // path every message; the storm still exercises the transport.
        let out = execute(&args(&[
            "stats",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--messages",
            "30",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("retransmissions_total"), "{out}");
        assert!(out.contains("degradations_total"), "{out}");
        assert!(out.contains("plan_switch_total"), "{out}");
        assert!(out.contains("envelope_bytes"), "{out}");
    }

    #[test]
    fn stats_json_is_machine_readable() {
        let file = demo_file();
        let out = execute(&args(&["stats", file.as_str(), "handle", "5", "3", "--json"])).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"metrics\""), "{out}");
        assert!(out.contains("\"retransmissions_total\""), "{out}");
    }

    #[test]
    fn trace_session_dumps_the_ring() {
        let file = demo_file();
        let out =
            execute(&args(&["trace", file.as_str(), "handle", "5", "3", "--session"])).unwrap();
        assert!(out.contains("plan_install"), "{out}");
        assert!(out.contains("degraded"), "{out}");
        let json =
            execute(&args(&["trace", file.as_str(), "handle", "5", "3", "--session", "--json"]))
                .unwrap();
        assert!(json.contains("\"events\""), "{json}");
    }

    #[test]
    fn help_prints_usage_without_error() {
        for invocation in [&["help"][..], &["--help"], &["-h"]] {
            let out = execute(&args(invocation)).unwrap();
            assert!(out.contains("mpart serve"), "{out}");
            assert!(out.contains("mpart stats"), "{out}");
        }
    }

    #[test]
    fn serve_shards_sessions_and_shares_the_analysis() {
        let file = demo_file();
        let out = execute(&args(&[
            "serve",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--sessions",
            "3",
            "--workers",
            "2",
            "--messages",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("3 sessions over 2 workers"), "{out}");
        assert!(out.contains("delivered 12 messages"), "{out}");
        assert!(out.contains("1 misses, 2 hits"), "{out}");
        assert!(out.contains("session 2:"), "{out}");
    }

    #[test]
    fn unknown_flags_are_refused_not_delivered_as_arguments() {
        let file = demo_file();
        for flag in [&["--auto-model"][..], &["--canry", "5"][..]] {
            let mut argv = vec!["serve", file.as_str(), "handle", "5", "3", "--messages", "2"];
            argv.extend_from_slice(flag);
            let err = execute(&args(&argv)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{flag:?}: {err:?}");
            assert!(err.to_string().contains(&format!("unknown flag `{}`", flag[0])), "{err}");
        }
        // A negative number starts with a single `-`: still an argument.
        let out = execute(&args(&[
            "serve",
            file.as_str(),
            "handle",
            "-5",
            "3",
            "--sessions",
            "1",
            "--messages",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("delivered 2 messages"), "{out}");
    }

    #[test]
    fn each_subcommand_refuses_a_flag_it_does_not_take() {
        let file = demo_file();
        let f = file.as_str();
        let cases: &[&[&str]] = &[
            &["fmt", f, "--model", "exec-time"],
            &["run", f, "handle", "5", "3", "--canry"],
            &["analyze", f, "handle", "--messages", "2"],
            &["codegen", f, "handle", "--session"],
            &["split", f, "handle", "--pse", "0", "5", "3", "--canry"],
            &["trace", f, "handle", "5", "3", "--json"],
            &["trace", f, "handle", "5", "3", "--session", "--nodes", "2"],
            &["stats", f, "handle", "5", "3", "--kill", "1"],
            &["stats", f, "handle", "5", "3", "--cluster", "--seed", "2"],
            &["serve", f, "handle", "5", "3", "--kill", "1"],
            &["serve", f, "handle", "5", "3", "--engine", "compiled"],
            &["route", f, "handle", "5", "3", "--json"],
            &["deadletter", f, "handle", "5", "3", "--sessions", "2"],
        ];
        for argv in cases {
            let flag = argv.iter().rev().find(|a| a.starts_with("--")).unwrap();
            match execute(&args(argv)) {
                Err(CliError::Usage(m)) => {
                    assert!(m.contains(&format!("unknown flag `{flag}`")), "{argv:?}: {m}")
                }
                other => panic!("{argv:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_rejects_zero_sessions_with_a_usage_error() {
        let file = demo_file();
        let err = execute(&args(&["serve", file.as_str(), "handle", "5", "3", "--sessions", "0"]))
            .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--sessions"), "{m}"),
            other => panic!("expected a usage error, got {other}"),
        }
    }

    #[test]
    fn serve_rejects_zero_capacity_queues_with_a_usage_error() {
        let file = demo_file();
        let err = execute(&args(&["serve", file.as_str(), "handle", "5", "3", "--queue", "0"]))
            .unwrap_err();
        match err {
            CliError::Usage(m) => assert!(m.contains("--queue"), "{m}"),
            other => panic!("expected a usage error, got {other}"),
        }
    }

    #[test]
    fn serve_and_route_reject_bad_guard_flags_with_usage_errors() {
        let file = demo_file();
        for bad in [
            &["serve", file.as_str(), "handle", "5", "3", "--canary", "0"][..],
            &["serve", file.as_str(), "handle", "5", "3", "--guard", "0"],
            &["serve", file.as_str(), "handle", "5", "3", "--guard", "-5"],
            &["serve", file.as_str(), "handle", "5", "3", "--guard", "150"],
            &["serve", file.as_str(), "handle", "5", "3", "--guard", "lots"],
            &["route", file.as_str(), "handle", "5", "3", "--canary", "0"],
            &["route", file.as_str(), "handle", "5", "3", "--guard", "101"],
        ] {
            match execute(&args(bad)) {
                Err(CliError::Usage(m)) => {
                    assert!(!m.contains('\n'), "one-line usage error: {m}");
                    assert!(m.contains("--canary") || m.contains("--guard"), "{m}");
                }
                other => panic!("expected a usage error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_guard_flags_arm_the_plan_guard() {
        let file = demo_file();
        let out = execute(&args(&[
            "serve",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--sessions",
            "1",
            "--messages",
            "3",
            "--canary",
            "4",
            "--guard",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("plan guard: 4-envelope canary, 50% breach threshold"), "{out}");
    }

    #[test]
    fn serve_journal_flag_writes_a_recovery_log() {
        let file = demo_file();
        let journal = tempfile_path::write("");
        let out = execute(&args(&[
            "serve",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--sessions",
            "2",
            "--messages",
            "2",
            "--journal",
            journal.as_str(),
        ]))
        .unwrap();
        assert!(out.contains("2 sessions"), "{out}");
        let log = std::fs::read_to_string(journal.as_str()).unwrap();
        assert!(log.contains("open"), "journal records session opens:\n{log}");
    }

    #[test]
    fn route_fails_over_when_a_node_is_killed() {
        let file = demo_file();
        let out = execute(&args(&[
            "route",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--nodes",
            "2",
            "--sessions",
            "3",
            "--messages",
            "6",
            "--kill",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("3 sessions over 2 nodes"), "{out}");
        assert!(out.contains("node 0 [node-0 @127.0.0.1:"), "{out}");
        assert!(out.contains("down (killed at round 3)"), "{out}");
        assert!(out.contains("failovers 1, sessions migrated 2"), "{out}");
        // One analysis for the whole cluster: migration is re-instantiation
        // from the shared cache, never re-analysis.
        assert!(out.contains("analysis cache: 1 misses"), "{out}");
        // Exactly-once numbering across the crash: 6 rounds -> seq 6.
        assert!(out.contains("seq 6"), "{out}");
    }

    #[test]
    fn route_rejects_bad_cluster_shapes_with_usage_errors() {
        let file = demo_file();
        for bad in [
            &["route", file.as_str(), "handle", "--nodes", "0"][..],
            &["route", file.as_str(), "handle", "--sessions", "0"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--kill", "2"],
            &["route", file.as_str(), "handle", "--nodes", "1", "--kill", "0"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--drain", "2"],
            &["route", file.as_str(), "handle", "--nodes", "1", "--drain", "0"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--ports", "7001,7001"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--ports", "7001"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--ports", "7001,zero"],
            &["route", file.as_str(), "handle", "--nodes", "2", "--ports", "7001,0"],
        ] {
            match execute(&args(bad)) {
                Err(CliError::Usage(m)) => {
                    assert!(!m.contains('\n'), "one-line usage error: {m}")
                }
                other => panic!("expected a usage error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn route_drains_a_node_off_the_ring() {
        let file = demo_file();
        let out = execute(&args(&[
            "route",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--nodes",
            "2",
            "--sessions",
            "3",
            "--messages",
            "4",
            "--drain",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("down (drained, off the ring)"), "{out}");
        assert!(out.contains("drained node 0: 2 sessions migrated away"), "{out}");
        assert!(out.contains("journal compacted to"), "{out}");
        // Restore-only scale-down: still one analysis for the cluster.
        assert!(out.contains("analysis cache: 1 misses"), "{out}");
    }

    #[test]
    fn stats_cluster_aggregates_per_node_metrics() {
        let file = demo_file();
        let out = execute(&args(&[
            "stats",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--cluster",
            "--nodes",
            "2",
            "--sessions",
            "2",
            "--messages",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("node 0 killed at round 2"), "{out}");
        assert!(out.contains("node_failovers_total 1"), "{out}");
        assert!(out.contains("sessions_migrated_total 1"), "{out}");
        // The per-node summary leads with the placement-authoritative
        // counts and the orphan column: the killed node places nothing,
        // the survivor holds both sessions, nothing is double-counted.
        assert!(out.contains("node  placed  orphaned  state"), "{out}");
        assert!(out.contains("0     0       1         down"), "{out}");
        assert!(out.contains("1     2       0         up"), "{out}");
        assert!(out.contains("router_placed_sessions{node=\"1\"} 2"), "{out}");
        // Per-node metrics carry the injected node label instead of
        // silently summing across nodes.
        assert!(out.contains("node=\"1\""), "{out}");
        let json = execute(&args(&[
            "stats",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--cluster",
            "--nodes",
            "2",
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"cluster\""), "{json}");
        assert!(json.contains("node_up"), "{json}");
    }

    #[test]
    fn deadletter_quarantines_the_poisoned_envelope() {
        let file = demo_file();
        let out = execute(&args(&[
            "deadletter",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--messages",
            "12",
            "--poison",
            "6",
        ]))
        .unwrap();
        assert!(out.contains("seq 6 [panic]"), "{out}");
        assert!(out.contains("1 quarantined"), "{out}");
        let json = execute(&args(&[
            "deadletter",
            file.as_str(),
            "handle",
            "5",
            "3",
            "--messages",
            "12",
            "--poison",
            "6",
            "--json",
        ]))
        .unwrap();
        assert!(json.contains("\"dead_letters\""), "{json}");
        assert!(json.contains("\"seq\": 6"), "{json}");
    }

    #[test]
    fn deadletter_defaults_poison_to_mid_window() {
        let file = demo_file();
        let out =
            execute(&args(&["deadletter", file.as_str(), "handle", "5", "3", "--messages", "10"]))
                .unwrap();
        assert!(out.contains("seq 5 [panic]"), "{out}");
    }

    #[test]
    fn parse_value_literals() {
        assert_eq!(parse_value("42"), Value::Int(42));
        assert_eq!(parse_value("-1.5"), Value::Float(-1.5));
        assert_eq!(parse_value("true"), Value::Bool(true));
        assert_eq!(parse_value("null"), Value::Null);
        assert_eq!(parse_value("hello"), Value::str("hello"));
    }
}
