//! Method Partitioning over real TCP sockets: the sender's modulator and
//! the receiver's demodulator live in separate threads connected only by
//! a localhost socket; continuations travel as marshalled frames and plan
//! updates flow back on the same connection. The sender is a
//! `Supervisor`, which would redial and replay its unacknowledged window
//! if the connection died.
//!
//! ```sh
//! cargo run --release --example tcp_stream
//! ```

use std::sync::Arc;
use std::time::Duration;

use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::cost::DataSizeModel;
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::Value;
use method_partitioning::jecho::{RetryPolicy, Supervisor, TcpReceiver};

const SRC: &str = r#"
class Scan { n: int, body: ref }

fn thumbnail(s) {
    out = new Scan
    out.n = 64
    b = new byte[64]
    out.body = b
    return out
}

fn view(event) {
    ok = event instanceof Scan
    if ok == 0 goto skip
    s = (Scan) event
    t = call thumbnail(s)
    native render(t)
    return 1
skip:
    return 0
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = Arc::new(parse_program(SRC)?);

    let mut receiver_builtins = BuiltinRegistry::new();
    receiver_builtins.register_native("render", 1, |_, _| Ok(Value::Null));
    let receiver = TcpReceiver::bind(
        Arc::clone(&program),
        "view",
        Arc::new(DataSizeModel::new()),
        receiver_builtins,
        TriggerPolicy::Rate(1),
    )?;
    println!("receiver listening on 127.0.0.1:{}", receiver.port());

    let mut sender = Supervisor::new(
        Arc::clone(&program),
        Arc::clone(receiver.handler()),
        BuiltinRegistry::new(),
        receiver.port(),
        RetryPolicy::default(),
    );
    // The receiver installs each plan update into the shared handler
    // before it reports the outcome, so its epoch is current here.
    let plan = receiver.handler().plan();

    for i in 0..8 {
        let p = Arc::clone(&program);
        sender.publish(move |ctx: &mut ExecCtx| {
            let classes = &p.classes;
            let class = classes.id("Scan").unwrap();
            let decl = classes.decl(class);
            let s = ctx.heap.alloc_object(classes, class);
            let b = ctx.heap.alloc_array(ElemType::Byte, 50_000);
            ctx.heap.set_field(s, decl.field("n").unwrap(), Value::Int(50_000))?;
            ctx.heap.set_field(s, decl.field("body").unwrap(), Value::Ref(b))?;
            Ok(vec![Value::Ref(s)])
        })?;
        let outcome = receiver.next_outcome()?;
        println!(
            "scan {i}: {} bytes on the wire, split at PSE {}, plan epoch {}",
            outcome.wire_bytes,
            outcome.split_pse,
            plan.epoch()
        );
    }
    sender.shutdown(Duration::from_secs(10))?;
    let processed = receiver.join()?;
    println!("\nreceiver processed {processed} scans; the 50 kB raw scans became 64 B thumbnails after one adaptation");
    Ok(())
}
