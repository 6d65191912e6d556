//! Concurrency stress: the plan is one seqlocked split word; switching it
//! from another thread while messages flow must never corrupt results.
//! (The exhaustive interleaving proof lives in `crates/core/src/plan.rs`;
//! this test keeps the race from returning unnoticed.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use method_partitioning::core::partitioned::PartitionedHandler;
use method_partitioning::core::profile::TriggerPolicy;
use method_partitioning::cost::DataSizeModel;
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::{IrError, Program, Value};
use method_partitioning::jecho::{RetryPolicy, Supervisor, TcpReceiver};

const SRC: &str = r#"
class Msg { n: int, data: ref }

fn squash(m) {
    out = new Msg
    out.n = 8
    d = new byte[8]
    out.data = d
    return out
}

fn take(event) {
    ok = event instanceof Msg
    if ok == 0 goto skip
    m = (Msg) event
    s = call squash(m)
    native keep(s)
    return 1
skip:
    return 0
}
"#;

fn msg(
    program: &Arc<Program>,
    n: usize,
) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
    let classes = &program.classes;
    move |ctx| {
        let class = classes.id("Msg").unwrap();
        let decl = classes.decl(class);
        let m = ctx.heap.alloc_object(classes, class);
        let d = ctx.heap.alloc_array(ElemType::Byte, n);
        ctx.heap.set_field(m, decl.field("n").unwrap(), Value::Int(n as i64))?;
        ctx.heap.set_field(m, decl.field("data").unwrap(), Value::Ref(d))?;
        Ok(vec![Value::Ref(m)])
    }
}

/// One thread flips the plan between "ship raw" and "squash at sender" as
/// fast as it can; the main thread pushes messages over loopback TCP to a
/// receiver thread. Every message must still produce the correct result.
///
/// Every install is a plan generation, and the receiver refuses a
/// continuation whose generation has left the retained history
/// (`IrError::StalePlan`). So the handler retains `RETAINED` generations
/// and the flapper spends at most `FLIPS_PER_MESSAGE` installs between two
/// delivered messages: no message goes stale, however the flips land.
#[test]
fn plan_flapping_under_concurrent_traffic_is_safe() {
    let program = Arc::new(parse_program(SRC).unwrap());
    let mut receiver_builtins = BuiltinRegistry::new();
    receiver_builtins.register_native("keep", 1, |_, _| Ok(Value::Null));

    let receiver = TcpReceiver::bind(
        Arc::clone(&program),
        "take",
        Arc::new(DataSizeModel::new()),
        receiver_builtins,
        TriggerPolicy::Never, // adaptation comes from the flapper thread
    )
    .unwrap();
    let mut supervisor = Supervisor::new(
        Arc::clone(&program),
        Arc::clone(receiver.handler()),
        BuiltinRegistry::new(),
        receiver.port(),
        RetryPolicy::default(),
    );

    let handler: Arc<PartitionedHandler> = Arc::clone(receiver.handler());
    // Identify the two plans.
    let entry = handler.entry_pse().expect("entry PSE");
    let late: Vec<usize> = (0..handler.analysis().pses().len())
        .filter(|&i| !handler.analysis().pses()[i].edge.is_entry())
        .collect();

    const RETAINED: usize = 1 << 16;
    const FLIPS_PER_MESSAGE: usize = RETAINED / 2;
    handler.plan().set_retention(RETAINED);
    let budget = Arc::new(AtomicUsize::new(FLIPS_PER_MESSAGE));

    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let flap_budget = Arc::clone(&budget);
    let flap_handler = Arc::clone(&handler);
    let late_clone = late.clone();
    let flapper = std::thread::spawn(move || {
        let mut flips = 0u64;
        while !stop_flag.load(Ordering::Relaxed) {
            if flap_budget
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(2))
                .is_err()
            {
                std::hint::spin_loop();
                continue;
            }
            flap_handler.plan().install(&[entry]);
            flap_handler.plan().install(&late_clone);
            flips += 2;
        }
        flips
    });

    let rounds = 200;
    for _ in 0..rounds {
        supervisor.publish(msg(&program, 4096)).unwrap();
        let outcome = receiver.next_outcome().unwrap();
        assert_eq!(outcome.ret, Some(Value::Int(1)));
        // Whatever mixture of flags the message observed, it split at a
        // real PSE and carried either the raw message or the squashed one.
        assert!(
            outcome.wire_bytes > 4000 || outcome.wire_bytes < 200,
            "wire bytes {} look like a torn payload",
            outcome.wire_bytes
        );
        budget.store(FLIPS_PER_MESSAGE, Ordering::Release);
    }
    stop.store(true, Ordering::Relaxed);
    let flips = flapper.join().unwrap();
    assert!(flips > 0, "the flapper actually ran");
    supervisor.shutdown(Duration::from_secs(30)).unwrap();
    assert_eq!(receiver.join().unwrap(), rounds);
}

/// Many sender threads share one analyzed handler (each gets its own
/// modulator clone); results stay correct and independent.
#[test]
fn shared_handler_across_sender_threads() {
    let program = Arc::new(parse_program(SRC).unwrap());
    let handler =
        PartitionedHandler::analyze(Arc::clone(&program), "take", Arc::new(DataSizeModel::new()))
            .unwrap();
    // Use the "squash at sender" plan.
    let late: Vec<usize> = (0..handler.analysis().pses().len())
        .filter(|&i| !handler.analysis().pses()[i].edge.is_entry())
        .collect();
    handler.plan().install(&late);

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let handler = Arc::clone(&handler);
            let program = Arc::clone(&program);
            std::thread::spawn(move || {
                let modulator = handler.modulator();
                let demodulator = handler.demodulator();
                let mut keep_builtins = BuiltinRegistry::new();
                keep_builtins.register_native("keep", 1, |_, _| Ok(Value::Null));
                for i in 0..50 {
                    let mut sender = ExecCtx::new(&program);
                    let args = msg(&program, 1000 + t * 100 + i)(&mut sender).unwrap();
                    let run = modulator.handle(&mut sender, args).unwrap();
                    let mut receiver = ExecCtx::with_builtins(&program, keep_builtins.clone());
                    let out = demodulator.handle(&mut receiver, &run.message).unwrap();
                    assert_eq!(out.ret, Some(Value::Int(1)));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}
