//! Bounded receiver state: a receiver's heap is the same size after a
//! thousand envelopes as after one, on every transport.
//!
//! Every transport applies envelopes through `Subscriber::apply`, which
//! releases what an envelope allocated once the demodulator returns, so
//! one handler that allocates per envelope — the unmarshalled event and
//! an array of its own — is streamed through all of them. Where the
//! receiver's context is reachable (`SimSession`) its heap is read
//! directly; everywhere, the thread-private context of `TcpReceiver`
//! included, the `receiver_heap_cells` gauge on the handler's registry
//! reports it.

use std::sync::Arc;
use std::time::Duration;

use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::core::session::{SessionConfig, SessionManager};
use method_partitioning::core::PartitionedHandler;
use method_partitioning::cost::{CostModel, DataSizeModel};
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::{IrError, Program, Value};
use method_partitioning::jecho::{
    ProxyConfig, ProxySession, RetryPolicy, SimConfig, SimSession, Supervisor, TcpReceiver,
};
use method_partitioning::simnet::{Host, Link, SimTime};

const SRC: &str = r#"
    class Blob { n: int, data: ref }

    fn sink(event) {
        ok = event instanceof Blob
        if ok == 0 goto skip
        b = (Blob) event
        d = b.data
        n = len d
        out = new int[8]
        out[0] = n
        native store(out)
        return n
    skip:
        return 0
    }
"#;

const ENVELOPES: usize = 1000;
const BLOB_BYTES: usize = 256;

fn program() -> Arc<Program> {
    Arc::new(parse_program(SRC).unwrap())
}

fn model() -> Arc<dyn CostModel> {
    Arc::new(DataSizeModel::new())
}

fn receiver_builtins() -> BuiltinRegistry {
    let mut b = BuiltinRegistry::new();
    b.register_native("store", 1, |_, _| Ok(Value::Null));
    b
}

fn blob(program: &Arc<Program>) -> impl Fn(&mut ExecCtx) -> Result<Vec<Value>, IrError> + Send {
    let program = Arc::clone(program);
    move |ctx| {
        let classes = &program.classes;
        let class = classes.id("Blob").unwrap();
        let decl = classes.decl(class);
        let o = ctx.heap.alloc_object(classes, class);
        let d = ctx.heap.alloc_array(ElemType::Byte, BLOB_BYTES);
        ctx.heap.set_field(o, decl.field("n").unwrap(), Value::Int(BLOB_BYTES as i64))?;
        ctx.heap.set_field(o, decl.field("data").unwrap(), Value::Ref(d))?;
        Ok(vec![Value::Ref(o)])
    }
}

/// Ships the raw event, so the receiver unmarshals the blob and runs the
/// whole handler: three cells per envelope.
fn pin_to_entry(handler: &PartitionedHandler) {
    handler.plan().install(&[handler.entry_pse().expect("entry PSE")]);
}

fn heap_cells(handler: &PartitionedHandler) -> usize {
    handler.obs().registry().gauge("receiver_heap_cells", &[]).get() as usize
}

/// Drives `deliver` `ENVELOPES` times; `cells` reads the receiver heap's
/// size, which must not move after the first envelope.
fn assert_flat<T>(
    transport: &mut T,
    mut deliver: impl FnMut(&mut T),
    cells: impl Fn(&T) -> usize,
    name: &str,
) {
    deliver(transport);
    let after_one = cells(transport);
    for _ in 1..ENVELOPES {
        deliver(transport);
    }
    assert_eq!(cells(transport), after_one, "{name}: receiver heap grew with the session");
    assert_eq!(after_one, 0, "{name}: this handler publishes nothing");
}

#[test]
fn sim_session_receiver_heap_is_flat() {
    let program = program();
    let config = SimConfig::new(
        Host::new("producer", 1_000_000.0),
        Link::new("lan", SimTime::from_millis(1), 1_000_000.0),
        Host::new("consumer", 1_000_000.0),
        TriggerPolicy::Never,
    );
    let mut session = SimSession::adaptive(
        Arc::clone(&program),
        "sink",
        model(),
        BuiltinRegistry::new(),
        receiver_builtins(),
        config,
    )
    .unwrap();
    pin_to_entry(session.handler());
    let make = blob(&program);
    assert_flat(
        &mut session,
        |s| {
            let report = s.deliver(&make).unwrap();
            assert_eq!(report.ret, Some(Value::Int(BLOB_BYTES as i64)));
        },
        |s| {
            assert_eq!(s.receiver_ctx().heap.len(), heap_cells(s.handler()), "gauge ≠ heap");
            s.receiver_ctx().heap.len()
        },
        "SimSession",
    );
}

#[test]
fn session_manager_receiver_heap_is_flat() {
    let program = program();
    let mut manager = SessionManager::new(SessionConfig::default().with_workers(1));
    let id = manager
        .open_session(
            Arc::clone(&program),
            "sink",
            model(),
            BuiltinRegistry::new(),
            receiver_builtins(),
        )
        .unwrap();
    pin_to_entry(manager.handler(id).unwrap());
    assert_flat(
        &mut manager,
        |m| {
            let outcome = m.deliver(id, blob(&program)).unwrap();
            assert_eq!(outcome.ret, Some(Value::Int(BLOB_BYTES as i64)));
        },
        |m| heap_cells(m.handler(id).unwrap()),
        "SessionManager",
    );
    manager.shutdown();
}

#[test]
fn proxy_session_receiver_heap_is_flat() {
    let program = program();
    let config = ProxyConfig {
        source: Host::new("mote", 50_000.0),
        uplink: Link::new("pan", SimTime::from_millis(2), 2_000_000.0),
        proxy: Host::new("broker", 5_000_000.0),
        downlink: Link::new("wan", SimTime::from_millis(20), 100_000.0),
        receiver: Host::new("client", 1_000_000.0),
        trigger: TriggerPolicy::Never,
        serialize_work_per_byte: 0.0,
    };
    let mut session = ProxySession::new(
        Arc::clone(&program),
        "sink",
        model(),
        BuiltinRegistry::new(),
        receiver_builtins(),
        config,
    )
    .unwrap();
    pin_to_entry(session.handler());
    let make = blob(&program);
    assert_flat(
        &mut session,
        |s| {
            let report = s.deliver(&make).unwrap();
            assert_eq!(report.ret, Some(Value::Int(BLOB_BYTES as i64)));
        },
        |s| heap_cells(s.handler()),
        "ProxySession",
    );
}

#[test]
fn tcp_receiver_heap_is_flat() {
    let program = program();
    let receiver = TcpReceiver::bind(
        Arc::clone(&program),
        "sink",
        model(),
        receiver_builtins(),
        TriggerPolicy::Never,
    )
    .unwrap();
    pin_to_entry(receiver.handler());
    let supervisor = Supervisor::new(
        Arc::clone(&program),
        Arc::clone(receiver.handler()),
        BuiltinRegistry::new(),
        receiver.port(),
        RetryPolicy::default(),
    );
    let make = blob(&program);
    let mut link = (receiver, supervisor);
    assert_flat(
        &mut link,
        |(receiver, supervisor)| {
            supervisor.publish(&make).unwrap();
            // The outcome is sent after the release, so the gauge is current.
            let outcome = receiver.next_outcome().unwrap();
            assert_eq!(outcome.ret, Some(Value::Int(BLOB_BYTES as i64)));
        },
        |(receiver, _)| heap_cells(receiver.handler()),
        "TcpReceiver",
    );
    let (receiver, supervisor) = link;
    supervisor.shutdown(Duration::from_secs(30)).unwrap();
    assert_eq!(receiver.join().unwrap(), ENVELOPES as u64);
}
