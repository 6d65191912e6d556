//! Loopback-TCP cluster nodes: a [`NodeServer`] wrapping a
//! [`SessionManager`] behind a line-oriented control protocol, and the
//! [`TcpNode`] client implementing the router's
//! [`NodeEndpoint`] over a real socket.
//!
//! This is what `mpart route --nodes N` drives: N in-process servers on
//! ephemeral loopback ports, one router dialing them. The protocol is
//! control-plane only — one request line, one response line:
//!
//! ```text
//! open <gid> <func> <model>                         -> ok <local>
//! restore <gid> <func> <model> <epoch> <wm> <flags> <active> <guard> <quar> -> ok <local>
//! deliver <local> <arg>...                          -> ok <outcome...>
//! prepare <local> <budget_ms> <active>              -> ok ready | ok rejected <msg> | ok quarantined
//! commit <local> <active>                           -> ok <epoch>
//! close <local>                                     -> ok <watermark>
//! evict <local>                                     -> ok <watermark>
//! heartbeat                                         -> ok beat
//! stats                                             -> ok <ident=value>...
//! ```
//!
//! Only session *identity* crosses the wire: the server is provisioned
//! with the program, models, and builtins at spawn (code is deployed;
//! state is journaled), so `open`/`restore` name the function and cost
//! model rather than shipping them. Arguments and scalar results cross in
//! a typed text codec ([`render_wire_value`]); a `Ref` result stays on
//! the node's heap and crosses as `null`.
//!
//! The server is thread-per-connection over one shared manager, and the
//! [`NodeServer::kill`] switch drops the manager and refuses further
//! requests *without* releasing the port — the shape of a crashed host
//! whose address is still routable. [`NodeServer::revive`] re-arms it
//! with a fresh, empty manager (the reboot), ready for the router's
//! rejoin migration. The client redials with the supervisor's capped
//! exponential backoff and per-instance jitter spread, but never retries
//! a `deliver` whose connection died mid-request: the response may have
//! been lost *after* application, and re-sending would double-apply. The
//! router's failover path re-delivers through the journaled watermark
//! instead.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mpart::journal::{parse_set, render_set, GuardSnapshot, SessionSnapshot};
use mpart::router::{GlobalSessionId, NodeEndpoint, NodeError, SessionSpec};
use mpart::session::{PrepareOutcome, SessionConfig, SessionManager, SessionOutcome};
use mpart::PseId;
use mpart_analysis::cache::AnalysisCache;
use mpart_cost::{CostModel, DataSizeModel, ExecTimeModel, PowerModel};
use mpart_ir::interp::BuiltinRegistry;
use mpart_ir::{IrError, Program, Value};
use rand::prelude::*;

use crate::supervisor::RetryPolicy;

/// Renders a scalar [`Value`] for the node control protocol. Strings are
/// escaped so the result never contains whitespace; heap references
/// render as `n` (null) — they cannot leave the node.
pub fn render_wire_value(value: &Value) -> String {
    match value {
        Value::Null | Value::Ref(_) => "n".into(),
        Value::Bool(b) => format!("b:{}", u8::from(*b)),
        Value::Int(i) => format!("i:{i}"),
        // Bit-exact float round-trip; decimal rendering would drift.
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Str(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace(' ', "\\s")
                .replace('\n', "\\n")
                .replace('\t', "\\t");
            format!("s:{escaped}")
        }
    }
}

/// Parses a token produced by [`render_wire_value`].
///
/// # Errors
///
/// [`IrError::Marshal`] on malformed tokens.
pub fn parse_wire_value(token: &str) -> Result<Value, IrError> {
    let bad = || IrError::Marshal(format!("bad wire value `{token}`"));
    match token.split_once(':') {
        None if token == "n" => Ok(Value::Null),
        Some(("b", rest)) => match rest {
            "0" => Ok(Value::Bool(false)),
            "1" => Ok(Value::Bool(true)),
            _ => Err(bad()),
        },
        Some(("i", rest)) => rest.parse().map(Value::Int).map_err(|_| bad()),
        Some(("f", rest)) => {
            let bits = u64::from_str_radix(rest, 16).map_err(|_| bad())?;
            Ok(Value::Float(f64::from_bits(bits)))
        }
        Some(("s", rest)) => {
            let mut out = String::new();
            let mut chars = rest.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('s') => out.push(' '),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    _ => return Err(bad()),
                }
            }
            Ok(Value::str(out))
        }
        _ => Err(bad()),
    }
}

fn model_by_name(name: &str) -> Result<Arc<dyn CostModel>, IrError> {
    match name {
        "data-size" => Ok(Arc::new(DataSizeModel::new())),
        "exec-time" => Ok(Arc::new(ExecTimeModel::new())),
        "power" => Ok(Arc::new(PowerModel::new())),
        other => Err(IrError::Unresolved(format!("unknown cost model `{other}`"))),
    }
}

struct ServerShared {
    name: String,
    program: Arc<Program>,
    config: SessionConfig,
    cache: Arc<AnalysisCache>,
    sender_builtins: BuiltinRegistry,
    receiver_builtins: BuiltinRegistry,
    manager: Mutex<Option<SessionManager>>,
    alive: AtomicBool,
    stopping: AtomicBool,
    processed: AtomicU64,
}

/// One cluster node: a [`SessionManager`] served over a loopback TCP
/// control protocol, with a kill switch for chaos drills. See the
/// [module docs](self).
pub struct NodeServer {
    shared: Arc<ServerShared>,
    port: u16,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NodeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeServer")
            .field("name", &self.shared.name)
            .field("port", &self.port)
            .field("alive", &self.shared.alive.load(Ordering::Relaxed))
            .finish()
    }
}

impl NodeServer {
    /// Binds an ephemeral loopback port and starts serving. `config`
    /// should carry the cluster journal and `cache` must be the shared
    /// analysis cache (both are what make failover migration cheap).
    ///
    /// # Errors
    ///
    /// [`IrError::Marshal`] on bind failure.
    pub fn spawn(
        name: impl Into<String>,
        program: Arc<Program>,
        config: SessionConfig,
        cache: Arc<AnalysisCache>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
    ) -> Result<NodeServer, IrError> {
        Self::spawn_on(name, 0, program, config, cache, sender_builtins, receiver_builtins)
    }

    /// [`spawn`](Self::spawn) on an explicit loopback `port` (0 keeps the
    /// ephemeral behavior). `mpart route --ports` uses this so the
    /// cluster's addresses are predictable.
    ///
    /// # Errors
    ///
    /// [`IrError::Marshal`] on bind failure (e.g. the port is taken).
    pub fn spawn_on(
        name: impl Into<String>,
        port: u16,
        program: Arc<Program>,
        config: SessionConfig,
        cache: Arc<AnalysisCache>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
    ) -> Result<NodeServer, IrError> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| IrError::Marshal(format!("bind 127.0.0.1:{port}: {e}")))?;
        let port =
            listener.local_addr().map_err(|e| IrError::Marshal(format!("addr: {e}")))?.port();
        let manager = SessionManager::with_shared_cache(config.clone(), Arc::clone(&cache));
        let shared = Arc::new(ServerShared {
            name: name.into(),
            program,
            config,
            cache,
            sender_builtins,
            receiver_builtins,
            manager: Mutex::new(Some(manager)),
            alive: AtomicBool::new(true),
            stopping: AtomicBool::new(false),
            processed: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stopping.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if !accept_shared.alive.load(Ordering::Acquire) {
                    // A killed node's port is still routable but nothing
                    // answers: drop the connection on the floor.
                    continue;
                }
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || serve_connection(&conn_shared, stream));
            }
        });
        Ok(NodeServer { shared, port, thread: Some(thread) })
    }

    /// The port the server listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Crashes the node: the manager (and all in-memory session state) is
    /// dropped; live connections die and new ones are refused. The
    /// journal and shared cache survive — they live with the cluster.
    pub fn kill(&self) {
        self.shared.alive.store(false, Ordering::Release);
        if let Some(manager) = self.shared.manager.lock().expect("node poisoned").take() {
            manager.shutdown();
        }
    }

    /// Reboots a killed node with a fresh, empty manager over the shared
    /// cache.
    pub fn revive(&self) {
        let mut manager = self.shared.manager.lock().expect("node poisoned");
        if manager.is_none() {
            *manager = Some(SessionManager::with_shared_cache(
                self.shared.config.clone(),
                Arc::clone(&self.shared.cache),
            ));
        }
        self.shared.alive.store(true, Ordering::Release);
    }

    /// Whether the node currently answers requests.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Messages delivered successfully since spawn (across kills).
    pub fn processed(&self) -> u64 {
        self.shared.processed.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(manager) = self.shared.manager.lock().expect("node poisoned").take() {
            manager.shutdown();
        }
    }
}

fn serve_connection(shared: &ServerShared, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if !shared.alive.load(Ordering::Acquire) {
            // Died mid-connection: go silent, exactly like the host.
            break;
        }
        let response = match handle_request(shared, line.trim_end()) {
            Ok(body) => format!("ok {body}\n"),
            Err(e) => format!("err {}\n", format!("{e}").replace('\n', " ")),
        };
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
    }
}

fn handle_request(shared: &ServerShared, line: &str) -> Result<String, IrError> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let malformed = |what: &str| IrError::Marshal(format!("malformed `{what}` request: {line}"));
    match cmd {
        "heartbeat" => Ok("beat".into()),
        "open" => {
            let [gid, func, model] = rest[..] else { return Err(malformed("open")) };
            let gid: u64 = gid.parse().map_err(|_| malformed("open"))?;
            let model = model_by_name(model)?;
            let mut guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_mut().ok_or_else(node_down)?;
            let local = manager.open_session_as(
                Arc::clone(&shared.program),
                func,
                model,
                shared.sender_builtins.clone(),
                shared.receiver_builtins.clone(),
                gid,
            )?;
            Ok(local.to_string())
        }
        "restore" => {
            let [gid, func, model, epoch, watermark, flags, active, guard, quar] = rest[..] else {
                return Err(malformed("restore"));
            };
            let gid: u64 = gid.parse().map_err(|_| malformed("restore"))?;
            let snapshot = SessionSnapshot {
                func: func.to_string(),
                model: model.to_string(),
                epoch: epoch.parse().map_err(|_| malformed("restore"))?,
                active: parse_set(active).map_err(|_| malformed("restore"))?,
                reason: "migrate".into(),
                watermark: watermark.parse().map_err(|_| malformed("restore"))?,
                flags: flags.parse().map_err(|_| malformed("restore"))?,
                guard: parse_guard_wire(guard).map_err(|()| malformed("restore"))?,
                quarantined: parse_quarantine_wire(quar).map_err(|()| malformed("restore"))?,
            };
            let model = model_by_name(model)?;
            let mut guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_mut().ok_or_else(node_down)?;
            let local = manager.restore_session_as(
                Arc::clone(&shared.program),
                func,
                model,
                shared.sender_builtins.clone(),
                shared.receiver_builtins.clone(),
                &snapshot,
                gid,
            )?;
            Ok(local.to_string())
        }
        "deliver" => {
            let (local, args) = rest.split_first().ok_or_else(|| malformed("deliver"))?;
            let local: usize = local.parse().map_err(|_| malformed("deliver"))?;
            let args: Vec<Value> =
                args.iter().map(|t| parse_wire_value(t)).collect::<Result<_, _>>()?;
            let guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_ref().ok_or_else(node_down)?;
            let outcome = manager.deliver(local, move |_| Ok(args))?;
            shared.processed.fetch_add(1, Ordering::Relaxed);
            Ok(render_outcome(&outcome))
        }
        "prepare" => {
            let [local, budget_ms, active] = rest[..] else { return Err(malformed("prepare")) };
            let local: usize = local.parse().map_err(|_| malformed("prepare"))?;
            let budget_ms: u64 = budget_ms.parse().map_err(|_| malformed("prepare"))?;
            let active = parse_set(active).map_err(|_| malformed("prepare"))?;
            let guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_ref().ok_or_else(node_down)?;
            match manager.prepare_plan(local, &active, Duration::from_millis(budget_ms))? {
                PrepareOutcome::Ready => Ok("ready".into()),
                PrepareOutcome::Rejected(msg) => Ok(format!("rejected {msg}")),
                PrepareOutcome::Quarantined => Ok("quarantined".into()),
            }
        }
        "commit" => {
            let [local, active] = rest[..] else { return Err(malformed("commit")) };
            let local: usize = local.parse().map_err(|_| malformed("commit"))?;
            let active = parse_set(active).map_err(|_| malformed("commit"))?;
            let guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_ref().ok_or_else(node_down)?;
            let epoch = manager.commit_plan(local, &active)?;
            Ok(epoch.to_string())
        }
        "close" | "evict" => {
            let [local] = rest[..] else { return Err(malformed(cmd)) };
            let local: usize = local.parse().map_err(|_| malformed(cmd))?;
            let mut guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_mut().ok_or_else(node_down)?;
            // `close` retires the session (journaled tombstone); `evict`
            // tears down the local copy only, leaving the journal tail
            // for the session's next host.
            let watermark = if cmd == "close" {
                manager.close_session(local)?
            } else {
                manager.evict_session(local)?
            };
            Ok(watermark.to_string())
        }
        "stats" => {
            let guard = shared.manager.lock().expect("node poisoned");
            let manager = guard.as_ref().ok_or_else(node_down)?;
            let mut pairs: Vec<String> = Vec::new();
            let mut absorb = |snapshot: mpart_obs::Snapshot| {
                for metric in snapshot.metrics {
                    let identity = metric.identity();
                    match metric.value {
                        mpart_obs::MetricValue::Counter(v) => pairs.push(format!("{identity}={v}")),
                        mpart_obs::MetricValue::Gauge(v) => pairs.push(format!("{identity}={v}")),
                        mpart_obs::MetricValue::Histogram(h) => {
                            pairs.push(format!("{identity}_count={}", h.count));
                            pairs.push(format!("{identity}_sum={}", h.sum));
                        }
                    }
                }
            };
            absorb(manager.obs().registry().snapshot());
            for session in 0..manager.sessions() {
                if let Some(handler) = manager.handler(session) {
                    absorb(handler.obs().registry().snapshot());
                }
            }
            Ok(pairs.join(" "))
        }
        _ => Err(IrError::Marshal(format!("unknown request `{cmd}`"))),
    }
}

fn node_down() -> IrError {
    IrError::Continuation("node is down".into())
}

/// An active-PSE set as a request token, in the journal's text form.
fn set_token(active: &[PseId]) -> String {
    let mut token = String::new();
    render_set(&mut token, active);
    token
}

/// Renders an open canary window for the migration wire:
/// `prior_epoch:epoch:remaining:set`, or `-` when no canary is open.
fn render_guard_wire(guard: Option<&GuardSnapshot>) -> String {
    match guard {
        None => "-".into(),
        Some(g) => {
            format!("{}:{}:{}:{}", g.prior_epoch, g.epoch, g.remaining, set_token(&g.prior_active))
        }
    }
}

fn parse_guard_wire(token: &str) -> Result<Option<GuardSnapshot>, ()> {
    if token == "-" {
        return Ok(None);
    }
    let mut fields = token.split(':');
    let mut num = || fields.next().ok_or(())?.parse::<u64>().map_err(|_| ());
    let prior_epoch = num()?;
    let epoch = num()?;
    let remaining = num()?;
    let prior_active = parse_set(fields.next().ok_or(())?).map_err(|_| ())?;
    if fields.next().is_some() {
        return Err(());
    }
    Ok(Some(GuardSnapshot { prior_epoch, epoch, remaining, prior_active }))
}

/// Renders quarantine entries for the migration wire: `;`-joined
/// `ttl:set` pairs, or `-` when the blacklist is empty.
fn render_quarantine_wire(entries: &[(Vec<PseId>, u32)]) -> String {
    if entries.is_empty() {
        return "-".into();
    }
    entries
        .iter()
        .map(|(set, ttl)| format!("{ttl}:{}", set_token(set)))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_quarantine_wire(token: &str) -> Result<Vec<(Vec<PseId>, u32)>, ()> {
    if token == "-" {
        return Ok(Vec::new());
    }
    token
        .split(';')
        .map(|entry| {
            let (ttl, set) = entry.split_once(':').ok_or(())?;
            Ok((parse_set(set).map_err(|_| ())?, ttl.parse().map_err(|_| ())?))
        })
        .collect()
}

fn render_outcome(outcome: &SessionOutcome) -> String {
    format!(
        "{} {} {} {} {} {} {} {}",
        outcome.seq,
        outcome.split_pse,
        outcome.wire_bytes,
        outcome.epoch,
        u8::from(outcome.reconfigured),
        outcome.mod_work,
        outcome.demod_work,
        outcome.ret.as_ref().map_or_else(|| "-".into(), render_wire_value),
    )
}

fn parse_outcome(body: &str) -> Result<SessionOutcome, IrError> {
    let bad = || IrError::Marshal(format!("bad outcome `{body}`"));
    let parts: Vec<&str> = body.split_whitespace().collect();
    let [seq, split_pse, wire_bytes, epoch, reconfigured, mod_work, demod_work, ret] = parts[..]
    else {
        return Err(bad());
    };
    Ok(SessionOutcome {
        seq: seq.parse().map_err(|_| bad())?,
        split_pse: split_pse.parse().map_err(|_| bad())?,
        wire_bytes: wire_bytes.parse().map_err(|_| bad())?,
        epoch: epoch.parse().map_err(|_| bad())?,
        ret: if ret == "-" { None } else { Some(parse_wire_value(ret)?) },
        reconfigured: reconfigured == "1",
        mod_work: mod_work.parse().map_err(|_| bad())?,
        demod_work: demod_work.parse().map_err(|_| bad())?,
    })
}

/// Router-side client for one [`NodeServer`]: implements
/// [`NodeEndpoint`] over a loopback socket, redialing with the
/// supervisor's backoff curve (per-instance jitter spread included).
pub struct TcpNode {
    name: String,
    port: u16,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<NodeConn>,
    call_budget: Duration,
}

/// Default per-call response deadline: analysis on `open` can be slow,
/// but a dead-silent node must not hang the router forever.
const DEFAULT_CALL_BUDGET: Duration = Duration::from_secs(10);

struct NodeConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl std::fmt::Debug for TcpNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpNode")
            .field("name", &self.name)
            .field("port", &self.port)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl TcpNode {
    /// A client for the node at loopback `port`. Jitter is spread per
    /// instance so a fleet of clients redialing one dead node staggers.
    pub fn new(name: impl Into<String>, port: u16, policy: RetryPolicy) -> Self {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let policy = policy.spread(INSTANCE.fetch_add(1, Ordering::Relaxed));
        let rng = StdRng::seed_from_u64(policy.jitter_seed);
        TcpNode {
            name: name.into(),
            port,
            policy,
            rng,
            conn: None,
            call_budget: DEFAULT_CALL_BUDGET,
        }
    }

    fn dial(port: u16) -> Result<NodeConn, NodeError> {
        let stream = TcpStream::connect(("127.0.0.1", port))
            .map_err(|e| NodeError::Transport(format!("connect: {e}")))?;
        let reader = BufReader::new(
            stream.try_clone().map_err(|e| NodeError::Transport(format!("clone: {e}")))?,
        );
        Ok(NodeConn { writer: stream, reader })
    }

    /// Connects if needed, backing off per the policy.
    fn ensure_connected(&mut self) -> Result<(), NodeError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last = NodeError::Transport("no attempts allowed".into());
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.delay(attempt - 1, &mut self.rng));
            }
            match Self::dial(self.port) {
                Ok(conn) => {
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// One request/response exchange on the live connection. Any failure
    /// drops the connection — the *caller* decides whether a resend is
    /// safe (it is not for `deliver`).
    fn exchange(&mut self, request: &str) -> Result<String, NodeError> {
        let budget = self.call_budget;
        let conn =
            self.conn.as_mut().ok_or_else(|| NodeError::Transport("not connected".into()))?;
        let failed = |e: std::io::Error| NodeError::Transport(format!("io: {e}"));
        let result = (|| {
            // Armed per call, not at dial time: callers with their own
            // deadline (prepare) tighten it without re-dialing. The
            // timeout is a socket option, so the reader clone shares it.
            conn.writer.set_read_timeout(Some(budget)).map_err(failed)?;
            // Request and terminator in one gathered write: one syscall,
            // and no flush-between-halves window where a peer could see a
            // newline-less partial line.
            crate::envelope::write_all_vectored(&mut conn.writer, &[request.as_bytes(), b"\n"])
                .map_err(failed)?;
            let mut line = String::new();
            let n = conn.reader.read_line(&mut line).map_err(failed)?;
            if n == 0 {
                return Err(NodeError::Transport("connection closed".into()));
            }
            Ok(line)
        })();
        let line = match result {
            Ok(line) => line,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        match line.trim_end().split_once(' ') {
            Some(("ok", body)) => Ok(body.to_string()),
            Some(("err", msg)) => Err(NodeError::Handler(IrError::Continuation(msg.to_string()))),
            _ if line.trim_end() == "ok" => Ok(String::new()),
            _ => {
                self.conn = None;
                Err(NodeError::Transport(format!("bad response `{}`", line.trim_end())))
            }
        }
    }

    /// Exchange with reconnect: safe only for idempotent requests
    /// (`open`/`restore` re-run on a fresh manager are idempotent at the
    /// journal level; `deliver` is NOT and must not come through here).
    fn exchange_reconnecting(&mut self, request: &str) -> Result<String, NodeError> {
        self.ensure_connected()?;
        match self.exchange(request) {
            Err(NodeError::Transport(_)) => {
                self.ensure_connected()?;
                self.exchange(request)
            }
            other => other,
        }
    }
}

impl NodeEndpoint for TcpNode {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn open(&mut self, gid: GlobalSessionId, spec: &SessionSpec) -> Result<usize, NodeError> {
        let request = format!("open {gid} {} {}", spec.func, spec.model.name());
        let body = self.exchange_reconnecting(&request)?;
        body.trim().parse().map_err(|_| NodeError::Transport(format!("bad local id `{body}`")))
    }

    fn restore(
        &mut self,
        gid: GlobalSessionId,
        spec: &SessionSpec,
        snapshot: &SessionSnapshot,
    ) -> Result<usize, NodeError> {
        let request = format!(
            "restore {gid} {} {} {} {} {} {} {} {}",
            spec.func,
            spec.model.name(),
            snapshot.epoch,
            snapshot.watermark,
            snapshot.flags,
            set_token(&snapshot.active),
            render_guard_wire(snapshot.guard.as_ref()),
            render_quarantine_wire(&snapshot.quarantined),
        );
        let body = self.exchange_reconnecting(&request)?;
        body.trim().parse().map_err(|_| NodeError::Transport(format!("bad local id `{body}`")))
    }

    fn deliver(&mut self, local: usize, args: Vec<Value>) -> Result<SessionOutcome, NodeError> {
        self.ensure_connected()?;
        let mut request = format!("deliver {local}");
        for arg in &args {
            request.push(' ');
            request.push_str(&render_wire_value(arg));
        }
        // No resend on transport failure: the node may have applied the
        // delivery before the response was lost.
        let body = self.exchange(&request)?;
        parse_outcome(&body).map_err(|e| NodeError::Transport(format!("{e}")))
    }

    fn close(&mut self, local: usize) -> Result<u64, NodeError> {
        self.ensure_connected()?;
        // Like `deliver`: no resend on transport failure — the node may
        // have already torn the slot down before the response was lost,
        // and a retry would surface a confusing "already closed" error.
        let body = self.exchange(&format!("close {local}"))?;
        body.trim().parse().map_err(|_| NodeError::Transport(format!("bad watermark `{body}`")))
    }

    fn evict(&mut self, local: usize) -> Result<u64, NodeError> {
        self.ensure_connected()?;
        let body = self.exchange(&format!("evict {local}"))?;
        body.trim().parse().map_err(|_| NodeError::Transport(format!("bad watermark `{body}`")))
    }

    fn prepare_plan(
        &mut self,
        local: usize,
        active: &[PseId],
        budget: Duration,
    ) -> Result<PrepareOutcome, NodeError> {
        let request = format!("prepare {local} {} {}", budget.as_millis(), set_token(active));
        // Prepare never touches the serving plan, so a resend after a
        // reconnect is safe. The client-side deadline covers the server's
        // validation budget plus wire slack; a remote that hangs past it
        // surfaces as a transport error and the old plan keeps serving.
        let saved = self.call_budget;
        self.call_budget = budget.saturating_add(Duration::from_millis(250));
        let result = self.exchange_reconnecting(&request);
        self.call_budget = saved;
        let body = result?;
        match body.trim().split_once(' ') {
            _ if body.trim() == "ready" => Ok(PrepareOutcome::Ready),
            _ if body.trim() == "quarantined" => Ok(PrepareOutcome::Quarantined),
            Some(("rejected", msg)) => Ok(PrepareOutcome::Rejected(msg.to_string())),
            _ => Err(NodeError::Transport(format!("bad prepare outcome `{body}`"))),
        }
    }

    fn commit_plan(&mut self, local: usize, active: &[PseId]) -> Result<u64, NodeError> {
        self.ensure_connected()?;
        // Like `deliver`: no resend on transport failure — the node may
        // have installed the plan (and opened its canary window) before
        // the response was lost, and a resend would restart the canary.
        let body = self.exchange(&format!("commit {local} {}", set_token(active)))?;
        body.trim().parse().map_err(|_| NodeError::Transport(format!("bad epoch `{body}`")))
    }

    fn heartbeat(&mut self) -> bool {
        if self.conn.is_none() && Self::dial(self.port).map(|c| self.conn = Some(c)).is_err() {
            return false;
        }
        matches!(self.exchange("heartbeat"), Ok(body) if body.trim() == "beat")
    }

    fn metrics(&mut self) -> Vec<(String, f64)> {
        if self.conn.is_none() && Self::dial(self.port).map(|c| self.conn = Some(c)).is_err() {
            return Vec::new();
        }
        let Ok(body) = self.exchange("stats") else { return Vec::new() };
        body.split_whitespace()
            .filter_map(|pair| {
                let (identity, value) = pair.rsplit_once('=')?;
                Some((identity.to_string(), value.parse().ok()?))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart::journal::{JournalRecord, SessionJournal};
    use mpart::router::{Router, RouterConfig};
    use mpart_ir::parse::parse_program;

    const SRC: &str = "fn double(x) {\n  y = x * 2\n  native emit(y)\n  return y\n}\n";

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("emit", 1, |_, _| Ok(Value::Null));
        b
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            max_attempts: 2,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn wire_values_round_trip() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(1.5e-300),
            Value::Float(-0.0),
            Value::str("plain"),
            Value::str("with space\tand\ttabs\nand lines \\ slashes"),
        ];
        for v in &values {
            let token = render_wire_value(v);
            assert!(!token.contains(' '), "token must be whitespace-free: {token}");
            assert_eq!(&parse_wire_value(&token).unwrap(), v, "{token}");
        }
        assert!(parse_wire_value("x:1").is_err());
        assert!(parse_wire_value("s:bad\\q").is_err());
    }

    #[test]
    fn restore_tokens_round_trip_empty_and_wide_sets() {
        let wide: Vec<PseId> = (0..64).collect();
        for set in [vec![], vec![2, 5], wide.clone()] {
            let token = set_token(&set);
            let joined = set.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
            assert_eq!(token, if set.is_empty() { "-".into() } else { joined }, "request bytes");
            let line = JournalRecord::Quarantine { session: 1, ttl: 7, active: set.clone() };
            assert_eq!(line.render(), format!("quar 1 7 {token}"), "journal bytes");
            assert_eq!(parse_set(&token).unwrap(), set);
            let guard = GuardSnapshot { prior_epoch: 3, epoch: 4, remaining: 2, prior_active: set };
            let restored = parse_guard_wire(&render_guard_wire(Some(&guard))).unwrap();
            assert_eq!(restored.as_ref(), Some(&guard));
            let quarantined = vec![(guard.prior_active, 7), (wide.clone(), 1)];
            let token = render_quarantine_wire(&quarantined);
            assert_eq!(parse_quarantine_wire(&token).unwrap(), quarantined);
        }
    }

    #[test]
    fn tcp_cluster_fails_over_with_zero_reanalysis() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let journal = Arc::new(SessionJournal::in_memory());
        let cache = Arc::new(AnalysisCache::new(64));
        let servers: Vec<NodeServer> = (0..2)
            .map(|i| {
                let config =
                    SessionConfig::default().with_workers(1).with_journal(Arc::clone(&journal));
                NodeServer::spawn(
                    format!("node-{i}"),
                    Arc::clone(&program),
                    config,
                    Arc::clone(&cache),
                    BuiltinRegistry::new(),
                    receiver_builtins(),
                )
                .unwrap()
            })
            .collect();
        let mut router =
            Router::new(RouterConfig::default(), Arc::clone(&journal), Arc::clone(&cache));
        for server in &servers {
            router.add_node(Box::new(TcpNode::new(server.name(), server.port(), fast_policy())));
        }

        let spec = SessionSpec {
            program: Arc::clone(&program),
            func: "double".into(),
            model: Arc::new(DataSizeModel::new()),
            sender_builtins: BuiltinRegistry::new(),
            receiver_builtins: receiver_builtins(),
        };
        let gids: Vec<u64> = (0..4).map(|_| router.open_session(spec.clone()).unwrap()).collect();
        for &gid in &gids {
            let out = router.deliver(gid, vec![Value::Int(21)]).unwrap();
            assert_eq!(out.ret, Some(Value::Int(42)));
            assert_eq!(out.seq, 1);
        }
        let misses = cache.misses();
        assert_eq!(misses, 1, "one analysis crossed the whole TCP cluster");

        servers[0].kill();
        let out = router.deliver(gids[0], vec![Value::Int(5)]).unwrap();
        assert_eq!(out.ret, Some(Value::Int(10)));
        assert_eq!(out.seq, 2, "journaled watermark carried over the wire");
        assert_eq!(router.placement(gids[0]), Some(1));
        assert_eq!(cache.misses(), misses, "zero re-analysis over TCP failover");
        assert!(!router.node_is_up(0));

        // Heartbeats see the dead node dead and the survivor alive.
        router.heartbeat().unwrap();
        assert!(router.node_is_up(1));

        // Reboot + rejoin streak brings the node home.
        servers[0].revive();
        for _ in 0..3 {
            router.heartbeat().unwrap();
        }
        assert!(router.node_is_up(0));
        assert_eq!(router.placement(gids[0]), Some(0), "home session migrated back");
        let out = router.deliver(gids[0], vec![Value::Int(7)]).unwrap();
        assert_eq!(out.seq, 3, "seq continuity across kill, failover, and rejoin");

        // The cluster surface aggregates both node hubs.
        let stats = router.cluster_stats();
        let migrated = stats
            .iter()
            .find(|(n, _)| n == "sessions_migrated_total")
            .map(|(_, v)| *v)
            .unwrap_or_default();
        assert!(migrated >= 2.0, "failover out + rejoin back: {stats:?}");
        assert!(
            stats.iter().any(|(n, _)| n.starts_with("session_messages_total{node=")),
            "{stats:?}"
        );

        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn close_and_drain_cross_the_wire() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let journal = Arc::new(SessionJournal::in_memory());
        let cache = Arc::new(AnalysisCache::new(64));
        let servers: Vec<NodeServer> = (0..2)
            .map(|i| {
                let config =
                    SessionConfig::default().with_workers(1).with_journal(Arc::clone(&journal));
                NodeServer::spawn(
                    format!("node-{i}"),
                    Arc::clone(&program),
                    config,
                    Arc::clone(&cache),
                    BuiltinRegistry::new(),
                    receiver_builtins(),
                )
                .unwrap()
            })
            .collect();
        let mut router =
            Router::new(RouterConfig::default(), Arc::clone(&journal), Arc::clone(&cache));
        for server in &servers {
            router.add_node(Box::new(TcpNode::new(server.name(), server.port(), fast_policy())));
        }
        let spec = SessionSpec {
            program: Arc::clone(&program),
            func: "double".into(),
            model: Arc::new(DataSizeModel::new()),
            sender_builtins: BuiltinRegistry::new(),
            receiver_builtins: receiver_builtins(),
        };
        let gids: Vec<u64> = (0..4).map(|_| router.open_session(spec.clone()).unwrap()).collect();
        for &gid in &gids {
            router.deliver(gid, vec![Value::Int(21)]).unwrap();
        }

        // Close retires the session cluster-wide: the final watermark
        // crosses the wire and a late delivery is refused.
        let watermark = router.close_session(gids[0]).unwrap();
        assert_eq!(watermark, 1, "final ack watermark crossed the TCP protocol");
        assert!(router.deliver(gids[0], vec![Value::Int(1)]).is_err());
        assert_eq!(router.placement(gids[0]), None);

        // Drain empties node 0 over TCP with zero re-analysis.
        let misses = cache.misses();
        let moved = router.drain_node(0).unwrap();
        assert!(moved >= 1, "node 0 hosted at least one live session");
        assert_eq!(cache.misses(), misses, "drain is restore-only: no re-analysis");
        assert!(!router.node_is_up(0), "drained node left the ring");
        for &gid in &gids[1..] {
            assert_eq!(router.placement(gid), Some(1));
            router.deliver(gid, vec![Value::Int(2)]).unwrap();
        }
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn handler_errors_cross_without_tripping_the_node() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let journal = Arc::new(SessionJournal::in_memory());
        let cache = Arc::new(AnalysisCache::new(64));
        let server = NodeServer::spawn(
            "solo",
            Arc::clone(&program),
            SessionConfig::default().with_workers(1).with_journal(Arc::clone(&journal)),
            Arc::clone(&cache),
            BuiltinRegistry::new(),
            receiver_builtins(),
        )
        .unwrap();
        let mut router =
            Router::new(RouterConfig::default(), Arc::clone(&journal), Arc::clone(&cache));
        router.add_node(Box::new(TcpNode::new("solo", server.port(), fast_policy())));
        let spec = SessionSpec {
            program: Arc::clone(&program),
            func: "double".into(),
            model: Arc::new(DataSizeModel::new()),
            sender_builtins: BuiltinRegistry::new(),
            receiver_builtins: receiver_builtins(),
        };
        let gid = router.open_session(spec).unwrap();
        // A type error inside the handler is the session's problem, not
        // the node's: the node stays up and keeps serving.
        let err = router.deliver(gid, vec![Value::str("not a number")]).unwrap_err();
        assert!(format!("{err}").contains("*"), "type error crossed the wire: {err}");
        assert!(router.node_is_up(0));
        let out = router.deliver(gid, vec![Value::Int(4)]).unwrap();
        assert_eq!(out.ret, Some(Value::Int(8)));
        server.shutdown();
    }
}
