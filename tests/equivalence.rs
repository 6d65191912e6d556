//! The keystone correctness property of Method Partitioning:
//!
//! > For any handler, any input, and ANY valid partition plan, running
//! > the modulator on the sender, shipping the continuation, and running
//! > the demodulator on the receiver is observationally equivalent to
//! > running the original handler in one place: same return value, same
//! > native-call trace (deep argument comparison), same receiver-side
//! > global effects.
//!
//! Exercised both on hand-written handlers covering every IR feature and
//! on randomly generated handler programs (property test).

use std::sync::Arc;

use method_partitioning::core::partitioned::PartitionedHandler;
use method_partitioning::core::reconfig::plan_through;
use method_partitioning::cost::{CostModel, DataSizeModel, ExecTimeModel};
use method_partitioning::ir::interp::{BuiltinRegistry, ExecCtx, Interp};
use method_partitioning::ir::parse::parse_program;
use method_partitioning::ir::types::ElemType;
use method_partitioning::ir::{IrError, Program, Value};
use proptest::prelude::*;

/// Observable outcome of a handler run: return value, native trace, and
/// receiver-side globals.
type Observed = (Option<Value>, Vec<String>, Vec<Value>);

/// Runs the handler unpartitioned in `ctx`.
fn run_direct(
    program: &Program,
    builtins: &BuiltinRegistry,
    name: &str,
    args: Vec<Value>,
) -> Observed {
    let mut ctx = ExecCtx::with_builtins(program, builtins.clone());
    let ret = Interp::new(program).run(&mut ctx, name, args).expect("direct run");
    let trace = ctx.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect();
    (ret, trace, ctx.globals)
}

/// Runs the handler through modulator + continuation + demodulator, with
/// the given single main split (completed to a cut by [`plan_through`]).
fn run_partitioned(
    program: &Arc<Program>,
    builtins: &BuiltinRegistry,
    name: &str,
    model: Arc<dyn CostModel>,
    main_pse: usize,
    args_builder: impl FnOnce(&mut ExecCtx) -> Vec<Value>,
) -> Result<Observed, IrError> {
    let handler = PartitionedHandler::analyze(Arc::clone(program), name, model)?;
    // Plan = the chosen main split, completed to a cut.
    handler.plan().install(&plan_through(handler.analysis(), main_pse)?);
    handler.plan().validate_cut(handler.analysis())?;

    let mut sender = ExecCtx::with_builtins(program, builtins.clone());
    let args = args_builder(&mut sender);
    let run = handler.modulator().handle(&mut sender, args)?;
    let mut receiver = ExecCtx::with_builtins(program, builtins.clone());
    let out = handler.demodulator().handle(&mut receiver, &run.message)?;
    let trace = receiver.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect();
    Ok((out.ret, trace, receiver.globals))
}

fn feature_rich_program() -> (Arc<Program>, BuiltinRegistry) {
    let program = Arc::new(
        parse_program(
            r#"
            class Packet { kind: int, body: ref, tag: str }
            global seen = 0

            fn helper(x, y) {
                s = x + y
                t = s * 3
                return t
            }

            fn handle(event, scale) {
                ok = event instanceof Packet
                if ok == 0 goto reject
                p = (Packet) event
                k = p.kind
                body = p.body
                n = len body
                sum = 0
                i = 0
            loop:
                if i >= n goto done
                v = body[i]
                sum = sum + v
                i = i + 1
                goto loop
            done:
                scaled = call helper(sum, k)
                mixed = scaled * scale
                out = new int[3]
                out[0] = sum
                out[1] = mixed
                out[2] = n
                c = global::seen
                c = c + 1
                global::seen = c
                native emit(out, c)
                return mixed
            reject:
                native emit_err(event)
                return -1
            }
            "#,
        )
        .expect("program"),
    );
    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("emit", 5, |_, _| Ok(Value::Null));
    builtins.register_native("emit_err", 1, |_, _| Ok(Value::Null));
    (program, builtins)
}

fn build_packet(ctx: &mut ExecCtx, program: &Program, kind: i64, body: &[i64]) -> Value {
    let classes = &program.classes;
    let class = classes.id("Packet").unwrap();
    let decl = classes.decl(class);
    let p = ctx.heap.alloc_object(classes, class);
    let arr = ctx.heap.alloc_array(ElemType::Int, body.len());
    for (i, v) in body.iter().enumerate() {
        ctx.heap.array_set(arr, i as i64, Value::Int(*v)).unwrap();
    }
    ctx.heap.set_field(p, decl.field("kind").unwrap(), Value::Int(kind)).unwrap();
    ctx.heap.set_field(p, decl.field("body").unwrap(), Value::Ref(arr)).unwrap();
    ctx.heap.set_field(p, decl.field("tag").unwrap(), Value::str("pkt")).unwrap();
    Value::Ref(p)
}

#[test]
fn every_pse_of_feature_rich_handler_is_equivalent() {
    let (program, builtins) = feature_rich_program();
    let body = [3i64, 1, 4, 1, 5, 9, 2, 6];
    let (ret, trace, globals) = {
        let mut ctx = ExecCtx::with_builtins(&program, builtins.clone());
        let pkt = build_packet(&mut ctx, &program, 7, &body);
        let ret = Interp::new(&program)
            .run(&mut ctx, "handle", vec![pkt, Value::Int(2)])
            .expect("direct");
        (
            ret,
            ctx.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect::<Vec<_>>(),
            ctx.globals.clone(),
        )
    };

    for model in [
        Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
        Arc::new(ExecTimeModel::new()) as Arc<dyn CostModel>,
    ] {
        let probe = PartitionedHandler::analyze(Arc::clone(&program), "handle", Arc::clone(&model))
            .unwrap();
        let n = probe.analysis().pses().len();
        assert!(n >= 3, "expected several PSEs under {}", model.name());
        for pse in 0..n {
            let (r, t, g) =
                run_partitioned(&program, &builtins, "handle", Arc::clone(&model), pse, |ctx| {
                    vec![build_packet(ctx, &program, 7, &body), Value::Int(2)]
                })
                .unwrap_or_else(|e| panic!("pse {pse} under {}: {e}", model.name()));
            assert_eq!(r, ret, "return value at pse {pse}");
            assert_eq!(t, trace, "native trace at pse {pse}");
            assert_eq!(g, globals, "globals at pse {pse}");
        }
    }
}

#[test]
fn rejected_events_are_equivalent_too() {
    let (program, builtins) = feature_rich_program();
    let (ret, trace, _) =
        run_direct(&program, &builtins, "handle", vec![Value::Int(99), Value::Int(2)]);
    assert_eq!(ret, Some(Value::Int(-1)));

    let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
    let probe =
        PartitionedHandler::analyze(Arc::clone(&program), "handle", Arc::clone(&model)).unwrap();
    for pse in 0..probe.analysis().pses().len() {
        let (r, t, _) =
            run_partitioned(&program, &builtins, "handle", Arc::clone(&model), pse, |_| {
                vec![Value::Int(99), Value::Int(2)]
            })
            .unwrap();
        assert_eq!(r, ret, "pse {pse}");
        assert_eq!(t, trace, "pse {pse}");
    }
}

/// Renders a small random handler: a chain of arithmetic/array operations
/// with an optional branch, ending in a native emit.
fn random_handler(ops: &[u8], with_branch: bool) -> String {
    let mut body = String::new();
    body.push_str("    acc = x\n    arr = new int[4]\n    arr[0] = x\n");
    if with_branch {
        body.push_str("    if x < 0 goto neg\n");
    }
    for (i, op) in ops.iter().enumerate() {
        match op % 6 {
            0 => body.push_str(&format!("    acc = acc + {}\n", i + 1)),
            1 => body.push_str(&format!("    acc = acc * {}\n", (i % 3) + 2)),
            2 => body.push_str(&format!("    arr[{}] = acc\n", i % 4)),
            3 => body.push_str(&format!("    t{i} = arr[{}]\n    acc = acc + t{i}\n", i % 4)),
            4 => body.push_str(&format!("    acc = acc - {}\n", i * 2)),
            _ => body.push_str(&format!("    u{i} = acc < {}\n    acc = acc + u{i}\n", i)),
        }
    }
    body.push_str("    native emit(acc, arr)\n    return acc\n");
    if with_branch {
        body.push_str("neg:\n    native emit_err(x)\n    return 0\n");
    }
    format!("fn gen(x) {{\n{body}}}\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_handlers_partition_equivalently(
        ops in proptest::collection::vec(0u8..=5, 1..10),
        with_branch in any::<bool>(),
        input in -50i64..50,
    ) {
        let src = random_handler(&ops, with_branch);
        let program = Arc::new(parse_program(&src).expect("generated program parses"));
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("emit", 1, |_, _| Ok(Value::Null));
        builtins.register_native("emit_err", 1, |_, _| Ok(Value::Null));

        let (ret, trace, _) =
            run_direct(&program, &builtins, "gen", vec![Value::Int(input)]);

        let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
        let probe = PartitionedHandler::analyze(
            Arc::clone(&program), "gen", Arc::clone(&model)).unwrap();
        for pse in 0..probe.analysis().pses().len() {
            let out = run_partitioned(
                &program,
                &builtins,
                "gen",
                Arc::clone(&model),
                pse,
                |_| vec![Value::Int(input)],
            );
            let (r, t, _) = out.expect("partitioned run");
            prop_assert_eq!(&r, &ret, "pse {} of:\n{}", pse, src);
            prop_assert_eq!(&t, &trace, "pse {} of:\n{}", pse, src);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-split plans: ANY subset of PSEs that forms a valid cut is
    /// observationally equivalent (the modulator stops at whichever active
    /// edge it reaches first).
    #[test]
    fn random_plan_subsets_are_equivalent(
        subset_bits in any::<u32>(),
        input in -50i64..50,
        body in proptest::collection::vec(0u8..=5, 1..8),
    ) {
        let src = random_handler(&body, true);
        let program = Arc::new(parse_program(&src).expect("parses"));
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("emit", 1, |_, _| Ok(Value::Null));
        builtins.register_native("emit_err", 1, |_, _| Ok(Value::Null));

        let (ret, trace, _) = run_direct(&program, &builtins, "gen", vec![Value::Int(input)]);

        let handler = PartitionedHandler::analyze(
            Arc::clone(&program),
            "gen",
            Arc::new(DataSizeModel::new()) as Arc<dyn CostModel>,
        )
        .unwrap();
        let n = handler.analysis().pses().len();
        let subset: Vec<usize> =
            (0..n).filter(|i| subset_bits & (1 << (i % 32)) != 0).collect();
        prop_assume!(!subset.is_empty());
        handler.plan().install(&subset);
        // Only valid cuts are runnable; invalid mixtures are rejected by
        // the modulator (also asserted here).
        if handler.plan().validate_cut(handler.analysis()).is_err() {
            let mut sender = ExecCtx::with_builtins(&program, builtins.clone());
            let err = handler.modulator().handle(&mut sender, vec![Value::Int(input)]);
            // A non-cut plan either fails (the uncovered path was taken) or
            // succeeds (a covered path was taken); it must never corrupt.
            if let Ok(run) = err {
                let mut receiver = ExecCtx::with_builtins(&program, builtins.clone());
                let out = handler.demodulator().handle(&mut receiver, &run.message).unwrap();
                prop_assert_eq!(&out.ret, &ret);
            }
            return Ok(());
        }

        let mut sender = ExecCtx::with_builtins(&program, builtins.clone());
        let run = handler
            .modulator()
            .handle(&mut sender, vec![Value::Int(input)])
            .expect("valid cut runs");
        let mut receiver = ExecCtx::with_builtins(&program, builtins.clone());
        let out = handler.demodulator().handle(&mut receiver, &run.message).unwrap();
        prop_assert_eq!(&out.ret, &ret);
        let got_trace: Vec<String> = receiver
            .trace
            .iter()
            .map(|t| format!("{}:{}", t.callee, t.args_digest))
            .collect();
        prop_assert_eq!(&got_trace, &trace);
    }
}

/// Interprocedural expansion (§7): inlining exposes split edges inside
/// callees, and every one of them is still observationally equivalent.
#[test]
fn inlined_handlers_partition_equivalently_with_more_pses() {
    use method_partitioning::ir::inline::{inlined_program, InlineOptions};

    let src = r#"
        class Frame { n: int, buff: ref }

        fn shrink(f, target) {
            src = f.buff
            x = src[0]
            out = new Frame
            out.n = target
            b = new byte[target]
            b[0] = x
            out.buff = b
            return out
        }

        fn stamp(f) {
            m = f.n
            m2 = m + 1
            f.n = m2
            return f
        }

        fn handle(event) {
            ok = event instanceof Frame
            if ok == 0 goto skip
            fr = (Frame) event
            small = call shrink(fr, 16)
            st = call stamp(small)
            native keep(st)
            return 1
        skip:
            return 0
        }
    "#;
    let program = Arc::new(parse_program(src).unwrap());
    let expanded = Arc::new(inlined_program(&program, "handle", InlineOptions::default()).unwrap());

    let mut builtins = BuiltinRegistry::new();
    builtins.register_native("keep", 1, |_, _| Ok(Value::Null));

    let build_frame = |ctx: &mut ExecCtx, prog: &Program| -> Vec<Value> {
        let classes = &prog.classes;
        let class = classes.id("Frame").unwrap();
        let decl = classes.decl(class);
        let f = ctx.heap.alloc_object(classes, class);
        let b = ctx.heap.alloc_array(method_partitioning::ir::types::ElemType::Byte, 500);
        ctx.heap.set_field(f, decl.field("n").unwrap(), Value::Int(500)).unwrap();
        ctx.heap.set_field(f, decl.field("buff").unwrap(), Value::Ref(b)).unwrap();
        vec![Value::Ref(f)]
    };

    // Reference run on the ORIGINAL program.
    let (ret, trace) = {
        let mut ctx = ExecCtx::with_builtins(&program, builtins.clone());
        let frame = build_frame(&mut ctx, &program);
        let ret = Interp::new(&program).run(&mut ctx, "handle", frame).unwrap();
        let trace: Vec<String> =
            ctx.trace.iter().map(|t| format!("{}:{}", t.callee, t.args_digest)).collect();
        (ret, trace)
    };

    let model: Arc<dyn CostModel> = Arc::new(DataSizeModel::new());
    let plain =
        PartitionedHandler::analyze(Arc::clone(&program), "handle", Arc::clone(&model)).unwrap();
    let rich =
        PartitionedHandler::analyze(Arc::clone(&expanded), "handle", Arc::clone(&model)).unwrap();
    assert!(
        rich.analysis().pses().len() > plain.analysis().pses().len(),
        "expansion exposes interior PSEs: {} vs {}",
        rich.analysis().pses().len(),
        plain.analysis().pses().len()
    );

    for pse in 0..rich.analysis().pses().len() {
        let (r, t, _) =
            run_partitioned(&expanded, &builtins, "handle", Arc::clone(&model), pse, |ctx| {
                build_frame(ctx, &expanded)
            })
            .unwrap_or_else(|e| panic!("inlined pse {pse}: {e}"));
        assert_eq!(r, ret, "return at inlined pse {pse}");
        assert_eq!(t, trace, "trace at inlined pse {pse}");
    }
}
