//! The two-engine execution contract.
//!
//! A handler body can execute on two engines with identical observable
//! behavior:
//!
//! * [`InterpEngine`] — the tree-walking interpreter. This is the
//!   *reference semantics*: every language rule (evaluation order, work
//!   charging, trap points, edge observation) is defined by what the
//!   interpreter does.
//! * [`CompiledEngine`] — the register-bytecode dispatch loop of
//!   [`compile`](crate::compile), the engine every partitioned handler
//!   runs from construction. It is contractually bound to the
//!   interpreter: results, traps, work/step metering, native-call traces,
//!   and suspension points must be indistinguishable. Every valid body
//!   compiles (see [`Function::validate`]), so there is no decline path.
//!
//! The partitioned runtime (`Modulator`/`Demodulator` in `mpart-core`)
//! holds an `Arc<dyn Engine>` and never mentions a concrete engine:
//! continuation packing, profiling feedback, and the Reconfiguration Unit
//! are engine-agnostic. [`EngineChoice`] switches a handler to the
//! reference engine, which is what the engine-differential tests compare
//! against.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mpart_ir::compile::CompileHints;
//! use mpart_ir::engine::{CompiledEngine, Engine, InterpEngine};
//! use mpart_ir::interp::ExecCtx;
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(parse_program("fn f(x) {\n    y = x * 2\n    return y\n}\n")?);
//! let engines: Vec<Arc<dyn Engine>> = vec![
//!     Arc::new(InterpEngine::new(Arc::clone(&program))),
//!     Arc::new(CompiledEngine::compile(Arc::clone(&program), &CompileHints::default())),
//! ];
//! for engine in engines {
//!     let mut ctx = ExecCtx::new(&program);
//!     assert_eq!(engine.run(&mut ctx, "f", vec![Value::Int(21)])?, Some(Value::Int(42)));
//! }
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::compile::{CompileHints, CompiledFunction, CompiledProgram, Vm};
use crate::func::{Function, Program};
use crate::instr::Pc;
use crate::interp::{check_resume, frame_env, EdgeObserver, ExecCtx, Interp, Outcome};
use crate::value::Value;
use crate::IrError;

/// An execution engine for IR programs.
///
/// Both methods with observers operate on the *outer* handler frame only,
/// exactly like the interpreter primitives they generalize; inner calls
/// never fire observers. Implementations must be observationally
/// equivalent to [`InterpEngine`] (see the module docs).
pub trait Engine: Send + Sync + fmt::Debug {
    /// Stable engine name, used as a metric label (`interp`/`compiled`).
    fn name(&self) -> &'static str;

    /// Runs `name` to completion with `args` (no observation).
    ///
    /// # Errors
    ///
    /// Propagates any runtime [`IrError`] from the handler.
    fn run(
        &self,
        ctx: &mut ExecCtx,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>, IrError>;

    /// Runs `func` under `observer`, which may suspend execution at a
    /// watched control-flow edge (the modulator half).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors; arity mismatches are [`IrError::Type`].
    fn run_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        args: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError>;

    /// Resumes `func` at instruction `entry` with a restored environment
    /// (the demodulator half of a remote continuation).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if `entry` is out of range or the
    /// environment size does not match, plus any runtime error.
    fn resume_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        entry: Pc,
        env: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError>;
}

/// The reference engine: delegates to [`Interp`].
#[derive(Debug, Clone)]
pub struct InterpEngine {
    program: Arc<Program>,
}

impl InterpEngine {
    /// Creates the reference engine over `program`.
    pub fn new(program: Arc<Program>) -> Self {
        InterpEngine { program }
    }
}

impl Engine for InterpEngine {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn run(
        &self,
        ctx: &mut ExecCtx,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>, IrError> {
        Interp::new(&self.program).run(ctx, name, args)
    }

    fn run_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        args: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        Interp::new(&self.program).run_with_observer(ctx, func, args, observer)
    }

    fn resume_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        entry: Pc,
        env: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        Interp::new(&self.program).resume_with_observer(ctx, func, entry, env, observer)
    }
}

/// The bytecode engine: every body of the program compiled to register
/// bytecode and run on the dispatch-loop VM.
#[derive(Debug)]
pub struct CompiledEngine {
    program: Arc<Program>,
    code: CompiledProgram,
    fallback_frames: AtomicU64,
}

impl CompiledEngine {
    /// Compiles every body of `program` under `hints`.
    pub fn compile(program: Arc<Program>, hints: &CompileHints) -> Self {
        let code = CompiledProgram::compile(&program, hints);
        CompiledEngine { program, code, fallback_frames: AtomicU64::new(0) }
    }

    /// Number of compiled bodies: every function of the program.
    pub fn compiled_bodies(&self) -> usize {
        self.code.compiled_bodies()
    }

    /// Frames that continued on the interpreter so far: a resume at an
    /// instruction that heads no resumable block, and a speculative load
    /// that met a non-integer (deoptimization). A block that would cross
    /// the step limit also continues there, uncounted: that path ends in
    /// a trap. The pipeline benchmark's probe reports this counter.
    pub fn fallback_frames(&self) -> u64 {
        self.fallback_frames.load(Ordering::Relaxed)
    }

    fn vm(&self) -> Vm<'_> {
        Vm::new(&self.program, &self.code, &self.fallback_frames)
    }

    /// The code a new frame of `func` runs.
    fn body(&self, func: &Function) -> Result<&CompiledFunction, IrError> {
        let code = self.code.body_of(&func.name);
        let code = code.ok_or_else(|| IrError::Unresolved(format!("function `{}`", func.name)))?;
        Ok(code.current(&self.program, func))
    }
}

impl Engine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn run(
        &self,
        ctx: &mut ExecCtx,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>, IrError> {
        let idx = self.code.index_of(name);
        let idx = idx.ok_or_else(|| IrError::Unresolved(format!("function `{name}`")))?;
        self.vm().call_fn(ctx, idx, args, 0)
    }

    fn run_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        args: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        let code = self.body(func)?;
        let env = frame_env(func, args)?;
        self.vm().exec(ctx, code, func, env, 0, Some(observer), 0)
    }

    fn resume_observed(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        entry: Pc,
        env: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        check_resume(func, entry, &env)?;
        let code = self.body(func)?;
        match code.resume_op(entry) {
            // Watched-edge targets head blocks that enter untyped, so a
            // resume point from a live plan always maps to an op; any
            // other entry (compiled under different hints) continues on
            // the interpreter.
            Some(entry_op) => self.vm().exec(ctx, code, func, env, entry_op, Some(observer), 0),
            None => {
                self.fallback_frames.fetch_add(1, Ordering::Relaxed);
                Interp::new(&self.program).resume_with_observer(ctx, func, entry, env, observer)
            }
        }
    }
}

/// Which engine a handler runs on.
///
/// Every handler runs [`Compiled`](EngineChoice::Compiled) from
/// construction. `PartitionedHandler::select_engine` keeps this switch so
/// that a handler can run on the reference engine: the engine-differential
/// tests and the `interp` bench compare the two on one handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// The reference interpreter.
    Interp,
    /// The bytecode engine.
    #[default]
    Compiled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompileOptions, Observed};
    use crate::heap::Heap;
    use crate::instr::Pc;
    use crate::interp::{EdgeAction, NoObserver};
    use crate::parse::parse_program;

    const LOOP_SRC: &str = "fn sum_to(n) {\n    i = 0\n    total = 0\nhead:\n    if i > n goto done\n    total = total + i\n    i = i + 1\n    goto head\ndone:\n    return total\n}\n";

    fn both_engines(src: &str) -> (Arc<Program>, InterpEngine, CompiledEngine) {
        let p = Arc::new(parse_program(src).unwrap());
        let interp = InterpEngine::new(Arc::clone(&p));
        let compiled = CompiledEngine::compile(Arc::clone(&p), &CompileHints::default());
        (p, interp, compiled)
    }

    /// Records every observed edge without suspending.
    #[derive(Default)]
    struct EdgeLog(Vec<(Pc, Pc, u64)>);
    impl EdgeObserver for EdgeLog {
        fn on_edge(&mut self, from: Pc, to: Pc, _: &[Value], _: &Heap, work: u64) -> EdgeAction {
            self.0.push((from, to, work));
            EdgeAction::Continue
        }
    }

    #[test]
    fn engines_agree_on_result_work_and_steps() {
        let (p, interp, compiled) = both_engines(LOOP_SRC);
        let mut c1 = ExecCtx::new(&p);
        let mut c2 = ExecCtx::new(&p);
        let r1 = interp.run(&mut c1, "sum_to", vec![Value::Int(100)]).unwrap();
        let r2 = compiled.run(&mut c2, "sum_to", vec![Value::Int(100)]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(c1.work, c2.work);
        assert_eq!(c1.steps, c2.steps);
        assert_eq!(compiled.fallback_frames(), 0);
    }

    #[test]
    fn observed_all_bytecode_fires_identical_edges() {
        let (p, interp, compiled) = both_engines(LOOP_SRC);
        let f = p.function("sum_to").unwrap();
        let mut log1 = EdgeLog::default();
        let mut log2 = EdgeLog::default();
        let mut c1 = ExecCtx::new(&p);
        let mut c2 = ExecCtx::new(&p);
        interp.run_observed(&mut c1, f, vec![Value::Int(9)], &mut log1).unwrap();
        compiled.run_observed(&mut c2, f, vec![Value::Int(9)], &mut log2).unwrap();
        assert_eq!(log1.0, log2.0);
    }

    #[test]
    fn step_limit_traps_at_identical_step_under_block_metering() {
        let mut hints = CompileHints::default();
        hints.per_fn.insert(
            "sum_to".into(),
            CompileOptions {
                observed: Observed::Edges(Default::default()),
                fuse: true,
                fuse_at: None,
            },
        );
        let p = Arc::new(parse_program(LOOP_SRC).unwrap());
        let interp = InterpEngine::new(Arc::clone(&p));
        let compiled = CompiledEngine::compile(Arc::clone(&p), &hints);
        for limit in [1u64, 7, 10, 23, 100] {
            let mut c1 = ExecCtx::new(&p);
            let mut c2 = ExecCtx::new(&p);
            c1.step_limit = limit;
            c2.step_limit = limit;
            let r1 = interp.run(&mut c1, "sum_to", vec![Value::Int(1_000_000)]);
            let r2 = compiled.run(&mut c2, "sum_to", vec![Value::Int(1_000_000)]);
            assert_eq!(r1, r2, "limit {limit}");
            assert_eq!(c1.steps, c2.steps, "limit {limit}");
            assert_eq!(c1.work, c2.work, "limit {limit}");
        }
    }

    #[test]
    fn suspension_and_resume_cross_engines() {
        // Suspend on the compiled engine, resume on the interpreter, and
        // vice versa: the SuspendPoint format is engine-agnostic.
        struct SuspendAt(Pc, Pc);
        impl EdgeObserver for SuspendAt {
            fn on_edge(&mut self, from: Pc, to: Pc, _: &[Value], _: &Heap, _: u64) -> EdgeAction {
                if from == self.0 && to == self.1 {
                    EdgeAction::Suspend
                } else {
                    EdgeAction::Continue
                }
            }
        }
        let (p, interp, compiled) = both_engines(LOOP_SRC);
        let f = p.function("sum_to").unwrap();
        let reference = {
            let mut ctx = ExecCtx::new(&p);
            interp.run(&mut ctx, "sum_to", vec![Value::Int(17)]).unwrap()
        };
        let engines: [(&dyn Engine, &dyn Engine); 2] = [(&interp, &compiled), (&compiled, &interp)];
        for (first, second) in engines {
            let mut c1 = ExecCtx::new(&p);
            let out =
                first.run_observed(&mut c1, f, vec![Value::Int(17)], &mut SuspendAt(2, 3)).unwrap();
            let sp = match out {
                Outcome::Suspended(sp) => sp,
                other => panic!("expected suspension, got {other:?}"),
            };
            let mut c2 = ExecCtx::new(&p);
            let fin = second.resume_observed(&mut c2, f, sp.to, sp.env, &mut NoObserver).unwrap();
            assert_eq!(fin.finished().unwrap(), reference);
        }
    }

    #[test]
    fn a_body_at_the_locals_limit_compiles_and_runs() {
        use crate::func::MAX_LOCALS;
        use crate::instr::{BinOp, Instr, Operand, Place, Rvalue, Var};
        let top = MAX_LOCALS as u32 - 1;
        let mut p = Program::new();
        p.add_function(Function {
            name: "big".into(),
            params: 1,
            locals: MAX_LOCALS,
            instrs: vec![
                Instr::Assign {
                    place: Place::Var(Var(top)),
                    rvalue: Rvalue::Binary(BinOp::Add, Operand::Var(Var(0)), Operand::int(1)),
                },
                Instr::Return { value: Some(Operand::Var(Var(top))) },
            ],
            var_names: (0..=top).map(|i| format!("v{i}")).collect(),
        })
        .unwrap();
        let p = Arc::new(p);
        let compiled = CompiledEngine::compile(Arc::clone(&p), &CompileHints::default());
        assert_eq!(compiled.compiled_bodies(), 1);
        let mut ctx = ExecCtx::new(&p);
        assert_eq!(
            compiled.run(&mut ctx, "big", vec![Value::Int(1)]).unwrap(),
            Some(Value::Int(2))
        );
        assert_eq!(compiled.fallback_frames(), 0);
    }

    #[test]
    fn engine_choice_defaults_to_compiled() {
        assert_eq!(EngineChoice::default(), EngineChoice::Compiled);
    }
}
