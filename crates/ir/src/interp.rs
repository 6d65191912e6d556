//! The IR interpreter.
//!
//! Besides plain execution, the interpreter provides the two primitives on
//! which Method Partitioning's *remote continuation* is built:
//!
//! * **edge observation** — a callback fired on every control-flow edge of
//!   the outer handler frame. The modulator uses it to (a) stop execution at
//!   an active Potential Split Edge and capture the environment, and (b)
//!   run per-PSE profiling code;
//! * **resumption** — [`Interp::resume_with_observer`] restores a variable
//!   environment and continues execution from an arbitrary instruction,
//!   which is how the demodulator picks up a continuation message.
//!
//! Execution is metered in abstract *work units* via a configurable
//! [`CostTable`]; the simulation substrate converts work units into virtual
//! time according to host speed and load.

use std::collections::HashMap;
use std::sync::Arc;

use crate::func::{Function, Program};
use crate::heap::Heap;
use crate::instr::{BinOp, CondExpr, Instr, Operand, Pc, Place, Rvalue, UnOp, Var};
use crate::value::Value;
use crate::IrError;

/// Signature of a builtin implemented in Rust.
///
/// Builtins receive the executing heap and evaluated arguments and return a
/// value. *Native* builtins model platform methods pinned to the receiver
/// (stop nodes); *pure* builtins model opaque helper methods that may run
/// on either side.
pub type BuiltinFn = Arc<dyn Fn(&mut Heap, &[Value]) -> Result<Value, IrError> + Send + Sync>;

/// Work-unit cost of invoking a builtin with the given arguments.
pub type BuiltinCostFn = Arc<dyn Fn(&Heap, &[Value]) -> u64 + Send + Sync>;

#[derive(Clone)]
pub(crate) struct BuiltinEntry {
    pub(crate) func: BuiltinFn,
    pub(crate) cost: BuiltinCostFn,
    pub(crate) native: bool,
}

/// Registry of Rust-implemented builtins available to IR programs.
///
/// Cloning is cheap (the table is behind an `Arc` with copy-on-write
/// registration), so per-message execution contexts can share one
/// registry without rebuilding the map.
#[derive(Clone, Default)]
pub struct BuiltinRegistry {
    map: Arc<HashMap<String, BuiltinEntry>>,
}

impl std::fmt::Debug for BuiltinRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("BuiltinRegistry").field("names", &names).finish()
    }
}

impl BuiltinRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a *native* builtin with a fixed work cost.
    ///
    /// Native builtins anchor the invoking instruction to the receiver.
    pub fn register_native(
        &mut self,
        name: impl Into<String>,
        cost: u64,
        func: impl Fn(&mut Heap, &[Value]) -> Result<Value, IrError> + Send + Sync + 'static,
    ) {
        Arc::make_mut(&mut self.map).insert(
            name.into(),
            BuiltinEntry { func: Arc::new(func), cost: Arc::new(move |_, _| cost), native: true },
        );
    }

    /// Registers a *native* builtin with a data-dependent work cost
    /// (e.g. a display routine costing one unit per painted pixel).
    pub fn register_native_with_cost(
        &mut self,
        name: impl Into<String>,
        cost: impl Fn(&Heap, &[Value]) -> u64 + Send + Sync + 'static,
        func: impl Fn(&mut Heap, &[Value]) -> Result<Value, IrError> + Send + Sync + 'static,
    ) {
        Arc::make_mut(&mut self.map).insert(
            name.into(),
            BuiltinEntry { func: Arc::new(func), cost: Arc::new(cost), native: true },
        );
    }

    /// Registers a *pure* builtin with a data-dependent work cost.
    ///
    /// Pure builtins model the opaque method invocations of the paper: the
    /// analysis does not look inside them, and they may execute on either
    /// the modulator or the demodulator side.
    pub fn register_pure(
        &mut self,
        name: impl Into<String>,
        cost: impl Fn(&Heap, &[Value]) -> u64 + Send + Sync + 'static,
        func: impl Fn(&mut Heap, &[Value]) -> Result<Value, IrError> + Send + Sync + 'static,
    ) {
        Arc::make_mut(&mut self.map).insert(
            name.into(),
            BuiltinEntry { func: Arc::new(func), cost: Arc::new(cost), native: false },
        );
    }

    /// Whether `name` is registered as a native builtin.
    pub fn is_native(&self, name: &str) -> bool {
        self.map.get(name).map(|e| e.native).unwrap_or(false)
    }

    /// Whether `name` is registered at all.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    pub(crate) fn get(&self, name: &str) -> Option<&BuiltinEntry> {
        self.map.get(name)
    }
}

/// Per-instruction-kind work-unit costs.
///
/// The defaults model a uniform instruction cost of one unit, with
/// allocation proportional to size. Applications tune these to reflect the
/// relative expense of their operations.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// Cost of a simple assignment/ALU instruction.
    pub simple: u64,
    /// Cost of a branch.
    pub branch: u64,
    /// Cost of a heap allocation (plus `alloc_per_elem` per array element).
    pub alloc: u64,
    /// Additional allocation cost per array element.
    pub alloc_per_elem: u64,
    /// Cost of a field or array element access.
    pub mem: u64,
    /// Base cost of any invocation (callee cost is added separately).
    pub invoke: u64,
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable { simple: 1, branch: 1, alloc: 4, alloc_per_elem: 0, mem: 1, invoke: 2 }
    }
}

/// A record of a native builtin invocation, used by tests to verify that a
/// partitioned execution is observationally equivalent to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Native builtin name.
    pub callee: String,
    /// Deep digest of the argument values (structure-sensitive,
    /// reference-identity-insensitive).
    pub args_digest: String,
}

/// Mutable execution context: heap, global variables, builtins, metering.
///
/// One `ExecCtx` models one host's address space. The modulator and
/// demodulator of a partitioned handler run in *different* contexts and
/// exchange data only through marshalled continuation messages.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// The object heap.
    pub heap: Heap,
    /// Current values of the program's globals.
    pub globals: Vec<Value>,
    /// Available builtins.
    pub builtins: BuiltinRegistry,
    /// Work units consumed so far.
    pub work: u64,
    /// Instructions executed so far.
    pub steps: u64,
    /// Hard step limit (guards against runaway handler loops).
    pub step_limit: u64,
    /// Per-kind instruction costs.
    pub costs: CostTable,
    /// Native invocations recorded since the owner last cleared it. It is
    /// the owner's to bound: a test reads it after a run, a transport
    /// whose context nothing else can reach clears it with every
    /// envelope.
    pub trace: Vec<TraceEvent>,
    /// Whether a trace entry carries the deep digest of the call's
    /// arguments. The digest is the equivalence tests' oracle and walks
    /// every argument byte; a context built to serve traffic
    /// ([`without_digests`](Self::without_digests)) records callee names
    /// only.
    pub trace_digests: bool,
}

impl ExecCtx {
    /// Creates a context with globals initialized from `program` and an
    /// empty builtin registry.
    pub fn new(program: &Program) -> Self {
        ExecCtx {
            heap: Heap::new(),
            globals: program.globals().iter().map(|g| g.init.clone()).collect(),
            builtins: BuiltinRegistry::new(),
            work: 0,
            steps: 0,
            step_limit: 200_000_000,
            costs: CostTable::default(),
            trace: Vec::new(),
            trace_digests: true,
        }
    }

    /// Creates a context with the given builtins.
    pub fn with_builtins(program: &Program, builtins: BuiltinRegistry) -> Self {
        let mut ctx = Self::new(program);
        ctx.builtins = builtins;
        ctx
    }

    /// A context for serving traffic rather than comparing runs: as
    /// [`with_builtins`](Self::with_builtins), but native calls record no
    /// argument digests. Every context a transport owns is built here.
    pub fn without_digests(program: &Program, builtins: BuiltinRegistry) -> Self {
        let mut ctx = Self::with_builtins(program, builtins);
        ctx.trace_digests = false;
        ctx
    }

    /// Resets metering and trace but keeps heap, globals, and builtins.
    pub fn reset_metering(&mut self) {
        self.work = 0;
        self.steps = 0;
        self.trace.clear();
    }
}

/// Action returned by an [`EdgeObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeAction {
    /// Keep executing.
    Continue,
    /// Stop at this edge; the interpreter returns a [`SuspendPoint`].
    Suspend,
}

/// Callback fired on every control-flow edge of the outer frame.
///
/// `from` has just executed; `to` has not. `vars` is the live environment,
/// `heap` the executing heap, and `work` the cumulative work counter —
/// enough for both split decisions and profiling measurements.
pub trait EdgeObserver {
    /// Observes the edge and decides whether to suspend.
    fn on_edge(&mut self, from: Pc, to: Pc, vars: &[Value], heap: &Heap, work: u64) -> EdgeAction;
}

/// An observer that never suspends (plain execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl EdgeObserver for NoObserver {
    fn on_edge(&mut self, _: Pc, _: Pc, _: &[Value], _: &Heap, _: u64) -> EdgeAction {
        EdgeAction::Continue
    }
}

/// State captured when execution suspends at an edge.
#[derive(Debug, Clone)]
pub struct SuspendPoint {
    /// Executed side of the edge.
    pub from: Pc,
    /// Unexecuted side of the edge (resumption entry point).
    pub to: Pc,
    /// Snapshot of the variable environment at the edge.
    pub env: Vec<Value>,
}

/// Result of an observed execution.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The handler ran to completion.
    Finished(Option<Value>),
    /// The observer suspended execution at an edge.
    Suspended(SuspendPoint),
}

impl Outcome {
    /// The returned value, if the outcome is `Finished`.
    pub fn finished(self) -> Option<Option<Value>> {
        match self {
            Outcome::Finished(v) => Some(v),
            Outcome::Suspended(_) => None,
        }
    }
}

/// The interpreter. Borrowed immutably from the program; cheap to create.
#[derive(Debug, Clone, Copy)]
pub struct Interp<'p> {
    program: &'p Program,
    max_depth: usize,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter over `program`.
    pub fn new(program: &'p Program) -> Self {
        Interp { program, max_depth: 64 }
    }

    /// The underlying program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Runs `name` to completion with `args`.
    ///
    /// # Errors
    ///
    /// Propagates any runtime error ([`IrError`]) from the handler.
    pub fn run(
        &self,
        ctx: &mut ExecCtx,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Option<Value>, IrError> {
        let f = self.program.function_or_err(name)?;
        self.call(ctx, f, args, 0)
    }

    /// Runs `func` under `observer`, which may suspend execution at any
    /// control-flow edge of the outer frame.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors; arity mismatches are
    /// [`IrError::Type`].
    pub fn run_with_observer(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        args: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        let env = frame_env(func, args)?;
        self.exec_frame(ctx, func, env, 0, Some(observer), 0)
    }

    /// Resumes `func` at instruction `entry` with a restored environment —
    /// the demodulator half of a remote continuation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if `entry` is out of range or the
    /// environment size does not match, plus any runtime error.
    pub fn resume_with_observer(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        entry: Pc,
        env: Vec<Value>,
        observer: &mut dyn EdgeObserver,
    ) -> Result<Outcome, IrError> {
        check_resume(func, entry, &env)?;
        self.exec_frame(ctx, func, env, entry, Some(observer), 0)
    }

    pub(crate) fn call(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, IrError> {
        let env = frame_env(func, args)?;
        match self.exec_frame(ctx, func, env, 0, None, depth)? {
            Outcome::Finished(v) => Ok(v),
            Outcome::Suspended(_) => unreachable!("suspension without observer"),
        }
    }

    pub(crate) fn exec_frame(
        &self,
        ctx: &mut ExecCtx,
        func: &Function,
        mut env: Vec<Value>,
        entry: Pc,
        mut observer: Option<&mut dyn EdgeObserver>,
        depth: usize,
    ) -> Result<Outcome, IrError> {
        if depth > self.max_depth {
            return Err(IrError::Type(format!("call depth exceeded at `{}`", func.name)));
        }
        let mut pc = entry;
        loop {
            ctx.steps += 1;
            if ctx.steps > ctx.step_limit {
                return Err(IrError::StepLimit(ctx.step_limit));
            }
            let instr = func
                .instrs
                .get(pc)
                .ok_or_else(|| IrError::Invalid(format!("pc {pc} fell off `{}`", func.name)))?;
            let next: Option<Pc> = match instr {
                Instr::Nop => {
                    ctx.work += ctx.costs.simple;
                    Some(pc + 1)
                }
                Instr::Return { value } => {
                    ctx.work += ctx.costs.simple;
                    let v = value.as_ref().map(|op| self.operand(&env, op));
                    return Ok(Outcome::Finished(v));
                }
                Instr::Goto { target } => {
                    ctx.work += ctx.costs.branch;
                    Some(*target)
                }
                Instr::If { cond, target } => {
                    ctx.work += ctx.costs.branch;
                    if self.cond(&env, cond)? {
                        Some(*target)
                    } else {
                        Some(pc + 1)
                    }
                }
                Instr::Assign { place, rvalue } => {
                    let v = self.rvalue(ctx, func, &env, rvalue, depth)?;
                    self.store(ctx, &mut env, place, v)?;
                    Some(pc + 1)
                }
            };
            let next = next.ok_or_else(|| {
                IrError::Invalid(format!("missing fallthrough in `{}`", func.name))
            })?;
            if next >= func.instrs.len() {
                return Err(IrError::Invalid(format!(
                    "control fell off the end of `{}`",
                    func.name
                )));
            }
            if let Some(obs) = observer.as_deref_mut() {
                match obs.on_edge(pc, next, &env, &ctx.heap, ctx.work) {
                    EdgeAction::Continue => {}
                    EdgeAction::Suspend => {
                        return Ok(Outcome::Suspended(SuspendPoint { from: pc, to: next, env }))
                    }
                }
            }
            pc = next;
        }
    }

    pub(crate) fn operand(&self, env: &[Value], op: &Operand) -> Value {
        match op {
            Operand::Var(v) => env[v.index()].clone(),
            Operand::Const(c) => c.to_value(),
        }
    }

    fn cond(&self, env: &[Value], cond: &CondExpr) -> Result<bool, IrError> {
        let lhs = self.operand(env, &cond.lhs);
        let rhs = self.operand(env, &cond.rhs);
        Ok(binop(cond.op, lhs, rhs)?.truthy())
    }

    pub(crate) fn store(
        &self,
        ctx: &mut ExecCtx,
        env: &mut [Value],
        place: &Place,
        value: Value,
    ) -> Result<(), IrError> {
        match place {
            Place::Var(v) => {
                env[v.index()] = value;
                Ok(())
            }
            Place::Field(base, field) => {
                ctx.work += ctx.costs.mem;
                let r = env[base.index()].as_ref("field store")?;
                ctx.heap.set_field(r, *field, value)
            }
            Place::ArrayElem(base, idx) => {
                ctx.work += ctx.costs.mem;
                let r = env[base.index()].as_ref("array store")?;
                let i = self.operand(env, idx).as_int("array index")?;
                ctx.heap.array_set(r, i, value)
            }
            Place::Global(g) => {
                ctx.work += ctx.costs.mem;
                ctx.globals[g.index()] = value;
                Ok(())
            }
        }
    }

    pub(crate) fn rvalue(
        &self,
        ctx: &mut ExecCtx,
        _func: &Function,
        env: &[Value],
        r: &Rvalue,
        depth: usize,
    ) -> Result<Value, IrError> {
        match r {
            Rvalue::Use(op) => {
                ctx.work += ctx.costs.simple;
                Ok(self.operand(env, op))
            }
            Rvalue::Unary(op, a) => {
                ctx.work += ctx.costs.simple;
                let v = self.operand(env, a);
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => Err(IrError::Type(format!("cannot negate {}", other.kind_name()))),
                    },
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            Rvalue::Binary(op, a, b) => {
                ctx.work += ctx.costs.simple;
                binop(*op, self.operand(env, a), self.operand(env, b))
            }
            Rvalue::InstanceOf(v, class) => {
                ctx.work += ctx.costs.simple;
                let val = &env[v.index()];
                Ok(Value::Bool(match val {
                    Value::Ref(r) => ctx.heap.class_of(*r)? == Some(*class),
                    _ => false,
                }))
            }
            Rvalue::Cast(class, v) => {
                ctx.work += ctx.costs.simple;
                let val = env[v.index()].clone();
                match &val {
                    Value::Null => Ok(Value::Null),
                    Value::Ref(r) => {
                        if ctx.heap.class_of(*r)? == Some(*class) {
                            Ok(val)
                        } else {
                            Err(IrError::Type(format!(
                                "cannot cast {r} to {}",
                                self.program.classes.decl(*class).name
                            )))
                        }
                    }
                    other => Err(IrError::Type(format!(
                        "cannot cast {} to a class type",
                        other.kind_name()
                    ))),
                }
            }
            Rvalue::New(class) => {
                ctx.work += ctx.costs.alloc;
                Ok(Value::Ref(ctx.heap.alloc_object(&self.program.classes, *class)))
            }
            Rvalue::NewArray(elem, n) => {
                let len = self.operand(env, n).as_int("array length")?;
                if len < 0 {
                    return Err(IrError::Type(format!("negative array length {len}")));
                }
                ctx.work += ctx.costs.alloc + ctx.costs.alloc_per_elem * len as u64;
                Ok(Value::Ref(ctx.heap.alloc_array(*elem, len as usize)))
            }
            Rvalue::FieldGet(v, field) => {
                ctx.work += ctx.costs.mem;
                let r = env[v.index()].as_ref("field load")?;
                ctx.heap.field(r, *field)
            }
            Rvalue::ArrayGet(v, idx) => {
                ctx.work += ctx.costs.mem;
                let r = env[v.index()].as_ref("array load")?;
                let i = self.operand(env, idx).as_int("array index")?;
                ctx.heap.array_get(r, i)
            }
            Rvalue::ArrayLen(v) => {
                ctx.work += ctx.costs.mem;
                let r = env[v.index()].as_ref("array length")?;
                Ok(Value::Int(ctx.heap.array_len(r)? as i64))
            }
            Rvalue::Invoke { callee, args } => {
                ctx.work += ctx.costs.invoke;
                let argv: Vec<Value> = args.iter().map(|a| self.operand(env, a)).collect();
                if let Some(f) = self.program.function(callee) {
                    return Ok(self.call(ctx, f, argv, depth + 1)?.unwrap_or(Value::Null));
                }
                let entry = ctx
                    .builtins
                    .get(callee)
                    .cloned()
                    .ok_or_else(|| IrError::Unresolved(format!("callee `{callee}`")))?;
                if entry.native {
                    return Err(IrError::Type(format!(
                        "`{callee}` is native; use a native invocation"
                    )));
                }
                ctx.work += (entry.cost)(&ctx.heap, &argv);
                (entry.func)(&mut ctx.heap, &argv)
            }
            Rvalue::InvokeNative { callee, args } => {
                ctx.work += ctx.costs.invoke;
                let argv: Vec<Value> = args.iter().map(|a| self.operand(env, a)).collect();
                let entry = ctx
                    .builtins
                    .get(callee)
                    .cloned()
                    .ok_or_else(|| IrError::Unresolved(format!("native `{callee}`")))?;
                ctx.work += (entry.cost)(&ctx.heap, &argv);
                let digest = if ctx.trace_digests {
                    crate::marshal::deep_digest_many(&ctx.heap, &argv)?
                } else {
                    String::new()
                };
                ctx.trace.push(TraceEvent { callee: callee.clone(), args_digest: digest });
                (entry.func)(&mut ctx.heap, &argv)
            }
            Rvalue::GlobalGet(g) => {
                ctx.work += ctx.costs.mem;
                Ok(ctx.globals[g.index()].clone())
            }
        }
    }
}

pub(crate) fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, IrError> {
    use Value::*;
    // Numeric promotion: if either side is a float, compute in floats.
    let numeric = |a: &Value, b: &Value| {
        matches!(a, Int(_) | Float(_) | Bool(_)) && matches!(b, Int(_) | Float(_) | Bool(_))
    };
    let any_float = matches!(a, Float(_)) || matches!(b, Float(_));
    match op {
        BinOp::Add => match (&a, &b) {
            (Str(x), Str(y)) => Ok(Value::str(format!("{x}{y}"))),
            _ if numeric(&a, &b) && any_float => Ok(Float(a.as_float("+")? + b.as_float("+")?)),
            _ if numeric(&a, &b) => Ok(Int(a.as_int("+")?.wrapping_add(b.as_int("+")?))),
            _ => Err(IrError::Type(format!("cannot add {} and {}", a.kind_name(), b.kind_name()))),
        },
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            if !numeric(&a, &b) {
                return Err(IrError::Type(format!(
                    "cannot apply `{op}` to {} and {}",
                    a.kind_name(),
                    b.kind_name()
                )));
            }
            if any_float {
                let (x, y) = (a.as_float("arith")?, b.as_float("arith")?);
                Ok(Float(match op {
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            return Err(IrError::DivideByZero);
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0.0 {
                            return Err(IrError::DivideByZero);
                        }
                        x % y
                    }
                    _ => unreachable!(),
                }))
            } else {
                let (x, y) = (a.as_int("arith")?, b.as_int("arith")?);
                Ok(Int(match op {
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(IrError::DivideByZero);
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(IrError::DivideByZero);
                        }
                        x.wrapping_rem(y)
                    }
                    _ => unreachable!(),
                }))
            }
        }
        BinOp::Eq | BinOp::Ne => {
            let eq = match (&a, &b) {
                (Null, Null) => true,
                (Null, _) | (_, Null) => false,
                (Ref(x), Ref(y)) => x == y,
                (Str(x), Str(y)) => x == y,
                _ if numeric(&a, &b) => {
                    if any_float {
                        a.as_float("==")? == b.as_float("==")?
                    } else {
                        a.as_int("==")? == b.as_int("==")?
                    }
                }
                _ => false,
            };
            Ok(Bool(if op == BinOp::Eq { eq } else { !eq }))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if !numeric(&a, &b) {
                return Err(IrError::Type(format!(
                    "cannot order {} and {}",
                    a.kind_name(),
                    b.kind_name()
                )));
            }
            let c = if any_float {
                a.as_float("cmp")?
                    .partial_cmp(&b.as_float("cmp")?)
                    .ok_or_else(|| IrError::Type("NaN comparison".into()))?
            } else {
                a.as_int("cmp")?.cmp(&b.as_int("cmp")?)
            };
            Ok(Bool(match op {
                BinOp::Lt => c.is_lt(),
                BinOp::Le => c.is_le(),
                BinOp::Gt => c.is_gt(),
                BinOp::Ge => c.is_ge(),
                _ => unreachable!(),
            }))
        }
        BinOp::And | BinOp::Or => match (&a, &b) {
            (Int(x), Int(y)) => Ok(Int(if op == BinOp::And { x & y } else { x | y })),
            _ => {
                let (x, y) = (a.truthy(), b.truthy());
                Ok(Bool(if op == BinOp::And { x && y } else { x || y }))
            }
        },
    }
}

/// Returns the variables occupying parameter slots of `func` — convenience
/// for building initial environments in tests.
pub fn param_vars(func: &Function) -> Vec<Var> {
    (0..func.params).map(|i| Var(i as u32)).collect()
}

/// Checks a resume point and restored environment against `func`.
///
/// # Errors
///
/// Returns [`IrError::Continuation`] if `entry` is out of range or the
/// environment size does not match.
pub(crate) fn check_resume(func: &Function, entry: Pc, env: &[Value]) -> Result<(), IrError> {
    if entry >= func.instrs.len() {
        return Err(IrError::Continuation(format!(
            "resume point {entry} out of range for `{}`",
            func.name
        )));
    }
    if env.len() != func.locals {
        return Err(IrError::Continuation(format!(
            "environment size {} does not match {} locals of `{}`",
            env.len(),
            func.locals,
            func.name
        )));
    }
    Ok(())
}

/// A new frame's environment for `func`: `args` in the parameter slots,
/// every other slot `Null`.
///
/// # Errors
///
/// Returns [`IrError::Type`] when `args` does not match the arity.
pub(crate) fn frame_env(func: &Function, args: Vec<Value>) -> Result<Vec<Value>, IrError> {
    if args.len() != func.params {
        return Err(IrError::Type(format!(
            "function `{}` expects {} args, got {}",
            func.name,
            func.params,
            args.len()
        )));
    }
    let mut env = vec![Value::Null; func.locals];
    for (slot, a) in env.iter_mut().zip(args) {
        *slot = a;
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn run_src(src: &str, name: &str, args: Vec<Value>) -> Result<Option<Value>, IrError> {
        let p = parse_program(src).unwrap();
        let mut ctx = ExecCtx::new(&p);
        Interp::new(&p).run(&mut ctx, name, args)
    }

    #[test]
    fn arithmetic_and_loops() {
        let src = r#"
            fn sum_to(n) {
                i = 0
                total = 0
            head:
                if i > n goto done
                total = total + i
                i = i + 1
                goto head
            done:
                return total
            }
        "#;
        assert_eq!(run_src(src, "sum_to", vec![Value::Int(10)]).unwrap(), Some(Value::Int(55)));
    }

    #[test]
    fn float_promotion() {
        let src = "fn f(x) {\n  y = x * 2\n  return y\n}\n";
        assert_eq!(run_src(src, "f", vec![Value::Float(1.5)]).unwrap(), Some(Value::Float(3.0)));
    }

    #[test]
    fn string_concat() {
        let src = "fn f(a, b) {\n  c = a + b\n  return c\n}\n";
        assert_eq!(
            run_src(src, "f", vec![Value::str("ab"), Value::str("cd")]).unwrap(),
            Some(Value::str("abcd"))
        );
    }

    #[test]
    fn divide_by_zero_is_error() {
        let src = "fn f(a) {\n  b = a / 0\n  return b\n}\n";
        assert_eq!(run_src(src, "f", vec![Value::Int(1)]), Err(IrError::DivideByZero));
    }

    #[test]
    fn instanceof_cast_and_fields() {
        let src = r#"
            class ImageData { width: int, buff: ref }
            fn check(e) {
                z = e instanceof ImageData
                if z == 0 goto no
                d = (ImageData) e
                w = d.width
                return w
            no:
                return -1
            }
            fn mk() {
                d = new ImageData
                d.width = 640
                r = call check(d)
                s = call check(7)
                t = r + s
                return t
            }
        "#;
        assert_eq!(run_src(src, "mk", vec![]).unwrap(), Some(Value::Int(639)));
    }

    #[test]
    fn interprocedural_calls() {
        let src = r#"
            fn twice(x) {
                y = call double(x)
                z = call double(y)
                return z
            }
            fn double(x) {
                y = x * 2
                return y
            }
        "#;
        assert_eq!(run_src(src, "twice", vec![Value::Int(3)]).unwrap(), Some(Value::Int(12)));
    }

    #[test]
    fn infinite_recursion_bounded() {
        let src = r#"
            fn f(x) {
                y = call f(x)
                return y
            }
        "#;
        let err = run_src(src, "f", vec![Value::Int(0)]).unwrap_err();
        assert!(matches!(err, IrError::Type(_)), "{err}");
    }

    #[test]
    fn step_limit_halts_runaway_loop() {
        let src = "fn f() {\nhead:\n  goto head\n}\n";
        let p = parse_program(src).unwrap();
        let mut ctx = ExecCtx::new(&p);
        ctx.step_limit = 1000;
        let err = Interp::new(&p).run(&mut ctx, "f", vec![]).unwrap_err();
        assert_eq!(err, IrError::StepLimit(1000));
    }

    #[test]
    fn globals_read_write() {
        let src = r#"
            global count = 10
            fn bump(by) {
                c = global::count
                c = c + by
                global::count = c
                return c
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut ctx = ExecCtx::new(&p);
        let interp = Interp::new(&p);
        assert_eq!(
            interp.run(&mut ctx, "bump", vec![Value::Int(5)]).unwrap(),
            Some(Value::Int(15))
        );
        assert_eq!(
            interp.run(&mut ctx, "bump", vec![Value::Int(1)]).unwrap(),
            Some(Value::Int(16))
        );
    }

    #[test]
    fn native_builtin_invocation_and_trace() {
        let src = r#"
            fn show(x) {
                native display(x)
                return
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("display", 10, |_, _| Ok(Value::Null));
        let mut ctx = ExecCtx::with_builtins(&p, builtins);
        Interp::new(&p).run(&mut ctx, "show", vec![Value::Int(3)]).unwrap();
        assert_eq!(ctx.trace.len(), 1);
        assert_eq!(ctx.trace[0].callee, "display");
        assert!(ctx.work >= 10);
    }

    #[test]
    fn pure_builtin_with_data_dependent_cost() {
        let src = r#"
            fn f(n) {
                a = new int[n]
                s = call fill(a)
                return s
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut builtins = BuiltinRegistry::new();
        builtins.register_pure(
            "fill",
            |heap, args| {
                args[0].as_ref("a").map(|r| heap.array_len(r).unwrap_or(0) as u64).unwrap_or(0)
            },
            |heap, args| {
                let r = args[0].as_ref("a")?;
                let n = heap.array_len(r)?;
                for i in 0..n {
                    heap.array_set(r, i as i64, Value::Int(i as i64))?;
                }
                Ok(Value::Int(n as i64))
            },
        );
        let mut ctx = ExecCtx::with_builtins(&p, builtins);
        let out = Interp::new(&p).run(&mut ctx, "f", vec![Value::Int(100)]).unwrap();
        assert_eq!(out, Some(Value::Int(100)));
        assert!(ctx.work >= 100);
    }

    #[test]
    fn native_called_as_pure_is_error() {
        let src = "fn f() {\n  x = call display(1)\n  return x\n}\n";
        let p = parse_program(src).unwrap();
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("display", 1, |_, _| Ok(Value::Null));
        let mut ctx = ExecCtx::with_builtins(&p, builtins);
        assert!(Interp::new(&p).run(&mut ctx, "f", vec![]).is_err());
    }

    struct SuspendAt {
        from: Pc,
        to: Pc,
    }
    impl EdgeObserver for SuspendAt {
        fn on_edge(&mut self, from: Pc, to: Pc, _: &[Value], _: &Heap, _: u64) -> EdgeAction {
            if from == self.from && to == self.to {
                EdgeAction::Suspend
            } else {
                EdgeAction::Continue
            }
        }
    }

    #[test]
    fn suspend_and_resume_round_trip() {
        let src = r#"
            fn calc(x) {
                a = x * 2
                b = a + 1
                c = b * b
                return c
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("calc").unwrap();
        let interp = Interp::new(&p);

        // Unpartitioned reference run.
        let mut ctx_ref = ExecCtx::new(&p);
        let expected = interp.run(&mut ctx_ref, "calc", vec![Value::Int(5)]).unwrap();

        // Suspend between instruction 1 (b = a + 1) and 2 (c = b * b).
        let mut ctx1 = ExecCtx::new(&p);
        let mut obs = SuspendAt { from: 1, to: 2 };
        let out = interp.run_with_observer(&mut ctx1, f, vec![Value::Int(5)], &mut obs).unwrap();
        let sp = match out {
            Outcome::Suspended(sp) => sp,
            other => panic!("expected suspension, got {other:?}"),
        };

        // Resume in a *fresh* context (no heap data needed here).
        let mut ctx2 = ExecCtx::new(&p);
        let done =
            interp.resume_with_observer(&mut ctx2, f, sp.to, sp.env, &mut NoObserver).unwrap();
        match done {
            Outcome::Finished(v) => assert_eq!(v, expected),
            other => panic!("expected finish, got {other:?}"),
        }
    }

    #[test]
    fn resume_bad_entry_is_continuation_error() {
        let src = "fn f() {\n  return\n}\n";
        let p = parse_program(src).unwrap();
        let f = p.function("f").unwrap();
        let mut ctx = ExecCtx::new(&p);
        let err = Interp::new(&p)
            .resume_with_observer(&mut ctx, f, 99, vec![], &mut NoObserver)
            .unwrap_err();
        assert!(matches!(err, IrError::Continuation(_)));
    }

    #[test]
    fn work_accounting_monotone() {
        let src = "fn f(n) {\n  a = n * 2\n  b = a + 1\n  return b\n}\n";
        let p = parse_program(src).unwrap();
        let mut ctx = ExecCtx::new(&p);
        Interp::new(&p).run(&mut ctx, "f", vec![Value::Int(1)]).unwrap();
        let w1 = ctx.work;
        assert!(w1 > 0);
        Interp::new(&p).run(&mut ctx, "f", vec![Value::Int(1)]).unwrap();
        assert!(ctx.work > w1);
    }

    #[test]
    fn cast_of_null_is_null() {
        let src = r#"
            class Box { v: int }
            fn f() {
                x = null
                y = (Box) x
                z = y == null
                return z
            }
        "#;
        assert_eq!(run_src(src, "f", vec![]).unwrap(), Some(Value::Bool(true)));
    }

    #[test]
    fn instanceof_array_and_scalar_is_false() {
        let src = r#"
            class Box { v: int }
            fn f() {
                a = new int[3]
                x = a instanceof Box
                y = 5
                z = 0
                if x == 0 goto next
                z = z + 1
            next:
                return z
            }
        "#;
        assert_eq!(run_src(src, "f", vec![]).unwrap(), Some(Value::Int(0)));
        let _ = "y"; // silence pedantic readers: y exercises scalar defs
    }

    #[test]
    fn bitwise_and_or_on_ints() {
        let src = "fn f(a, b) {\n  x = a & b\n  y = a | b\n  z = x + y\n  return z\n}\n";
        assert_eq!(
            run_src(src, "f", vec![Value::Int(0b1100), Value::Int(0b1010)]).unwrap(),
            Some(Value::Int(0b1000 + 0b1110))
        );
    }

    #[test]
    fn float_division_by_zero_is_error() {
        let src = "fn f(a) {\n  b = a / 0.0\n  return b\n}\n";
        assert_eq!(run_src(src, "f", vec![Value::Float(1.0)]), Err(IrError::DivideByZero));
    }

    #[test]
    fn negative_array_length_is_error() {
        let src = "fn f(n) {\n  a = new byte[n]\n  return a\n}\n";
        assert!(matches!(run_src(src, "f", vec![Value::Int(-5)]), Err(IrError::Type(_))));
    }

    #[test]
    fn bad_cast_reports_class_name() {
        let src = r#"
            class Left { v: int }
            class Right { w: int }
            fn f() {
                a = new Left
                b = (Right) a
                return b
            }
        "#;
        let err = run_src(src, "f", vec![]).unwrap_err();
        assert!(err.to_string().contains("Right"), "{err}");
    }

    #[test]
    fn alloc_per_elem_cost_scales() {
        let src = "fn f(n) {\n  a = new byte[n]\n  return a\n}\n";
        let p = parse_program(src).unwrap();
        let mut small = ExecCtx::new(&p);
        small.costs.alloc_per_elem = 2;
        Interp::new(&p).run(&mut small, "f", vec![Value::Int(10)]).unwrap();
        let mut large = ExecCtx::new(&p);
        large.costs.alloc_per_elem = 2;
        Interp::new(&p).run(&mut large, "f", vec![Value::Int(1000)]).unwrap();
        assert_eq!(large.work - small.work, 2 * 990);
    }

    #[test]
    fn resume_inside_post_loop_code() {
        // Suspend after the loop finishes, resume in a fresh context.
        let src = r#"
            fn f(n) {
                i = 0
                acc = 0
            head:
                if i >= n goto done
                acc = acc + i
                i = i + 1
                goto head
            done:
                d = acc * 2
                r = d + 1
                return r
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("f").unwrap();
        let interp = Interp::new(&p);
        // Instruction index of `d = acc * 2` is 6; suspend on edge (6, 7).
        let mut obs = SuspendAt { from: 6, to: 7 };
        let mut ctx = ExecCtx::new(&p);
        let out = interp.run_with_observer(&mut ctx, f, vec![Value::Int(5)], &mut obs).unwrap();
        let sp = match out {
            Outcome::Suspended(sp) => sp,
            other => panic!("{other:?}"),
        };
        let mut ctx2 = ExecCtx::new(&p);
        let fin =
            interp.resume_with_observer(&mut ctx2, f, sp.to, sp.env, &mut NoObserver).unwrap();
        assert_eq!(fin.finished().unwrap(), Some(Value::Int(21)));
    }

    #[test]
    fn comparisons_and_logic() {
        let src = r#"
            fn f(a, b) {
                x = a < b
                y = a >= b
                z = x & y
                w = x | y
                v = z == false
                u = w
                t = v & u
                return t
            }
        "#;
        assert_eq!(
            run_src(src, "f", vec![Value::Int(1), Value::Int(2)]).unwrap(),
            Some(Value::Bool(true))
        );
    }
}
