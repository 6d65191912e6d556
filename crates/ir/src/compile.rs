//! Register-bytecode compilation of IR function bodies.
//!
//! The tree-walking interpreter in [`interp`](crate::interp) is the
//! *reference semantics* of the IR: it fires the edge-observation hook on
//! every control-flow edge, which is what the modulator/demodulator need —
//! but it pays enum-walking, operand boxing, and a virtual observer call per
//! instruction. This module flattens a [`Function`] body into a dense array
//! of register [`Op`]s once, so the per-envelope hot path becomes a tight
//! dispatch loop:
//!
//! * **registers** are the function's local slots — the runtime environment
//!   stays a `Vec<Value>` with the *exact* layout the interpreter uses, so
//!   suspension snapshots ([`SuspendPoint`]) and continuation packing are
//!   byte-identical across engines;
//! * **integer code runs on unboxed `i64`s.** A forward kind inference
//!   (the lattice below) proves which registers hold an `Int` at each
//!   instruction. Where the proof holds, arithmetic, comparisons and
//!   branches lower to typed ops ([`Op::AddI`], [`Op::BrCmpI`], …, with
//!   constant-operand forms) that read a per-frame `i64` register file of
//!   [`INT_SLOTS`] slots. Where it fails, a guarded generic op (an integer
//!   fast lane in front of the interpreter's `binop`) runs instead;
//! * **work and steps are metered per basic block** by an [`Op::Enter`] at
//!   each block's head, not per op;
//! * **jump targets are pre-resolved** to op indices, and **constants are
//!   pre-interned** into a per-function pool of materialized [`Value`]s.
//!
//! # Kinds
//!
//! Each register at each instruction has one kind: `Int`, `Bool`, `Float`,
//! `Ref`, `Null` (a slot never written), or `Unknown`, joined at control
//! flow merges (two different kinds join to `Unknown`). Parameters enter
//! `Unknown`. A register is `Int` only where every path to the instruction
//! ends in a typed op that wrote its `i64` slot. `Bool` is not `Int`:
//! `binop` promotes a `Bool` operand to an integer, so `ok == 0` on a
//! `Bool` register, or `b + 1`, takes the generic path. Typed arithmetic
//! wraps exactly as `binop` does, and `DivI`/`RemI` trap with
//! [`IrError::DivideByZero`] on a zero divisor.
//!
//! The `Value` environment stays authoritative: a typed op writes its
//! result to the `i64` slot *and* to the `Value` register, so the
//! environment an observer, a suspension or a return sees is the
//! interpreter's, with nothing to materialize. The `i64` file only spares
//! typed ops the tag checks on their operands. A resumed frame enters
//! with only the `Value` environment, so every watched edge's target
//! starts with every register `Null` or `Unknown` — the continuation
//! carries only live variables, every other slot is `Null` — and a
//! resume at any other block whose entry state holds an `Int` runs on
//! the interpreter.
//!
//! # Block metering
//!
//! A basic block ends at a branch, a jump, a return, a watched edge, a
//! call (it re-enters the VM and counts steps of its own), an array
//! allocation (its work depends on the length) and any shape delegated to
//! the interpreter ([`Op::Slow`]). Its [`Op::Enter`] charges the steps of
//! all its instructions and the work of those whose cost is static; the
//! block-ending op charges its own dynamic work itself, exactly where the
//! interpreter does. So at every watched edge — the only place the
//! dispatch loop hands `work` to an observer — the counters equal the
//! interpreter's. Two exceptions keep traps exact:
//!
//! * a block that would cross `step_limit` is not entered: the frame
//!   continues on the interpreter from the block's first instruction, so
//!   [`IrError::StepLimit`] fires at the identical step with identical
//!   work;
//! * an op that traps inside a block refunds the advance charge of the ops
//!   after it, which never ran.
//!
//! # Every valid body compiles
//!
//! [`compile_function`] is total over valid bodies: [`Function::validate`],
//! which every function of a [`Program`] passed, bounds the locals, the
//! distinct constants and the instruction count by what 16-bit registers,
//! a 16-bit constant pool and 32-bit op indices address. Assignments with
//! no dedicated opcode lower to [`Op::Slow`], which delegates that single
//! instruction to the interpreter's own rvalue/store evaluators — the
//! long tail is correct by construction.
//!
//! Observation points are supplied at compile time via [`Observed`]:
//! [`Observed::All`] (the default) keeps every edge observable — every
//! instruction is then its own block and no register is ever typed, so
//! bytecode under `All` is edge-for-edge indistinguishable from the
//! interpreter. [`Observed::Edges`] lists the *watched set* (in the
//! runtime: active-plan PSE edges plus edges into stop nodes); an
//! [`Op::Observe`] on each watched edge is the only place the dispatch
//! loop calls the observer.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mpart_ir::compile::{CompileHints, CompiledProgram};
//! use mpart_ir::engine::{CompiledEngine, Engine};
//! use mpart_ir::interp::ExecCtx;
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(parse_program(
//!     "fn sum_to(n) {\n    i = 0\n    total = 0\nhead:\n    if i > n goto done\n    \
//!      total = total + i\n    i = i + 1\n    goto head\ndone:\n    return total\n}\n",
//! )?);
//! // Every body compiles.
//! let compiled = CompiledProgram::compile(&program, &CompileHints::default());
//! assert_eq!(compiled.compiled_bodies(), 1);
//!
//! let engine = CompiledEngine::compile(Arc::clone(&program), &CompileHints::default());
//! let mut ctx = ExecCtx::new(&program);
//! assert_eq!(engine.run(&mut ctx, "sum_to", vec![Value::Int(10)])?, Some(Value::Int(55)));
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::func::{Function, Program, MAX_CONSTS, MAX_INSTRS, MAX_LOCALS};
use crate::instr::{BinOp, Const, GlobalId, Instr, Operand, Pc, Place, PoolKey, Rvalue, UnOp, Var};
use crate::interp::{
    binop, frame_env, CostTable, EdgeAction, EdgeObserver, ExecCtx, Interp, Outcome, SuspendPoint,
    TraceEvent,
};
use crate::types::{ClassId, ElemType, FieldId};
use crate::value::Value;
use crate::IrError;

/// A register: a 16-bit index into the function's local-slot environment.
pub type Reg = u16;

/// An index into the frame's `i64` register file (`< INT_SLOTS`).
pub type Slot = u8;

/// Size of the per-frame `i64` register file. It lives on the stack, so a
/// frame costs no allocation for it; registers past the first
/// `INT_SLOTS` that could be typed stay on the generic path.
pub const INT_SLOTS: usize = 32;

/// `pc_map` entry for instructions that do not start a basic block (only
/// block heads are entry points).
pub const NO_ENTRY: u32 = u32::MAX;

// The limits `Function::validate` enforces fit the bytecode's index types.
const _: () = assert!(MAX_LOCALS <= Reg::MAX as usize + 1);
const _: () = assert!(MAX_CONSTS <= u16::MAX as usize + 1);
const _: () = assert!(MAX_INSTRS < NO_ENTRY as usize / 2);

/// A pre-resolved operand: a register or an index into the constant pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// Read a local slot.
    Reg(Reg),
    /// Read the interned constant pool.
    Const(u16),
}

/// Where a call result is stored (mirrors [`Place`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CallDst {
    /// A local slot.
    Reg(Reg),
    /// An object field store.
    Field(Reg, FieldId),
    /// An array element store.
    Elem(Reg, Src),
    /// A global store.
    Global(GlobalId),
}

/// A call target resolved at compile time.
///
/// IR functions resolve to a program index; builtin names stay symbolic
/// because the registry lives in the per-host [`ExecCtx`].
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// An IR function, by program index.
    Fn(u32),
    /// A pure builtin, resolved in the executing context's registry.
    Pure(Arc<str>),
    /// A native builtin (stop-node semantics; traced).
    Native(Arc<str>),
}

/// A comparison operator as the set of orderings that satisfy it (bit 0:
/// less, bit 1: equal, bit 2: greater), so typed compares do not branch
/// on the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmp(u8);

impl Cmp {
    /// The mask of a comparison operator (`None` for non-comparisons).
    pub fn of(op: BinOp) -> Option<Cmp> {
        Some(Cmp(match op {
            BinOp::Lt => 0b001,
            BinOp::Le => 0b011,
            BinOp::Eq => 0b010,
            BinOp::Ne => 0b101,
            BinOp::Gt => 0b100,
            BinOp::Ge => 0b110,
            _ => return None,
        }))
    }

    /// Whether `x cmp y` holds.
    #[inline(always)]
    pub fn holds(self, x: i64, y: i64) -> bool {
        let ord = (x.cmp(&y) as i8 + 1) as u8;
        (self.0 >> ord) & 1 != 0
    }
}

/// One call instruction, kept out of line so [`Op`] stays 16 bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite {
    /// Result destination.
    pub dst: CallDst,
    /// Pre-resolved callee.
    pub callee: Callee,
    /// Argument operands, in order.
    pub args: Box<[Src]>,
}

/// One bytecode operation.
///
/// [`Op::Enter`], [`Op::Observe`], [`Op::ObserveJmp`] and [`Op::OffEnd`]
/// are not instructions: they cost no step and no work. Every other op
/// stands for one IR instruction (a `nop` emits none), whose steps and
/// static work its block's `Enter` has charged. Typed ops (suffix `I`,
/// constant-operand forms `IK`) read `i64` slots; each that defines an
/// integer writes both its slot and its `Value` register.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Block head: charges the block's steps and static work, or hands the
    /// frame to the interpreter if the block would cross the step limit.
    Enter {
        /// Index into [`CompiledFunction::blocks`].
        block: u32,
    },
    /// A watched fall-through edge: report it to the observer, if any.
    Observe {
        /// Executed side of the edge.
        from: u32,
        /// Unexecuted side of the edge.
        to: u32,
    },
    /// A watched taken edge: report it, then jump.
    ObserveJmp {
        /// Executed side of the edge.
        from: u32,
        /// Unexecuted side of the edge.
        to: u32,
        /// Target op index.
        t: u32,
    },
    /// Sentinel after a last instruction that can fall through; raises the
    /// interpreter's off-the-end error.
    OffEnd,
    /// Return, optionally with a value.
    Ret(Option<Src>),
    /// Unconditional jump to op index `t`.
    Jmp {
        /// Target op index.
        t: u32,
    },
    /// Conditional branch: jump when `a op b` is truthy.
    Br {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Target op index when taken.
        t: u32,
    },
    /// Typed conditional branch: jump when `ints[a] cmp ints[b]`.
    BrCmpI {
        /// Comparison operator.
        cmp: Cmp,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
        /// Target op index when taken.
        t: u32,
    },
    /// Typed conditional branch against a constant: jump when
    /// `ints[a] cmp k`.
    BrCmpIK {
        /// Comparison operator.
        cmp: Cmp,
        /// Left slot.
        a: Slot,
        /// Target op index when taken.
        t: u32,
        /// Right constant.
        k: i64,
    },
    /// `dst = k` for an integer constant.
    ConstI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// The constant.
        k: i64,
    },
    /// `dst = src` between integer registers.
    MovI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Source slot.
        s: Slot,
    },
    /// `dst = -src` (wrapping).
    NegI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Source slot.
        s: Slot,
    },
    /// `dst = ints[a] + ints[b]` (wrapping).
    AddI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] - ints[b]` (wrapping).
    SubI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] * ints[b]` (wrapping).
    MulI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] / ints[b]` (wrapping; traps on zero).
    DivI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] % ints[b]` (wrapping; traps on zero).
    RemI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] + k` (wrapping).
    AddIK {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = ints[a] - k` (wrapping).
    SubIK {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = ints[a] * k` (wrapping).
    MulIK {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = ints[a] / k` (wrapping; traps on zero).
    DivIK {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = ints[a] % k` (wrapping; traps on zero).
    RemIK {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = ints[a] cmp ints[b]`, a `Bool` in the `Value` register.
    CmpI {
        /// Comparison operator.
        cmp: Cmp,
        /// Destination register.
        dst: Reg,
        /// Left slot.
        a: Slot,
        /// Right slot.
        b: Slot,
    },
    /// `dst = ints[a] cmp k`, a `Bool` in the `Value` register.
    CmpIK {
        /// Comparison operator.
        cmp: Cmp,
        /// Destination register.
        dst: Reg,
        /// Left slot.
        a: Slot,
        /// Right constant.
        k: i64,
    },
    /// `dst = len arr` into an integer register.
    ArrLenI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Array reference register.
        arr: Reg,
    },
    /// Guard at the head of the entry block and of every resume point:
    /// loads register `r`, proven or speculated `Int` there, into its
    /// slot, or deoptimizes before the block's first instruction (`pc`)
    /// runs.
    LoadI {
        /// The register.
        r: Reg,
        /// Its slot.
        d: Slot,
        /// The block's first instruction.
        pc: u32,
    },
    /// `dst = obj.field` into an integer register, speculated: a value
    /// that is not an `Int` deoptimizes — the load's advance charge is
    /// refunded and the frame continues on the interpreter from `pc`,
    /// which re-executes the load (loads have no side effects).
    FieldI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Base reference register.
        obj: Reg,
        /// Field.
        field: FieldId,
        /// Instruction index, where a deoptimized frame resumes.
        pc: u32,
    },
    /// `dst = arr[ints[idx]]` into an integer register, speculated like
    /// [`Op::FieldI`]: an element of a float or ref array deoptimizes.
    ElemI {
        /// Destination register.
        dst: Reg,
        /// Destination slot.
        d: Slot,
        /// Array reference register.
        arr: Reg,
        /// Index slot.
        idx: Slot,
        /// Instruction index, where a deoptimized frame resumes.
        pc: u32,
    },
    /// `dst = arr[ints[idx]]`.
    ArrGetI {
        /// Destination register.
        dst: Reg,
        /// Array reference register.
        arr: Reg,
        /// Index slot.
        idx: Slot,
    },
    /// `arr[ints[idx]] = src`.
    ArrSetI {
        /// Array reference register.
        arr: Reg,
        /// Index slot.
        idx: Slot,
        /// Stored operand.
        src: Src,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Src,
    },
    /// `dst = op src`.
    Un {
        /// Unary operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Src,
    },
    /// `dst = a op b`, guarded: an integer fast lane, else the interpreter's `binop`.
    Bin {
        /// Binary operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// `dst = obj instanceof class`.
    InstanceOf {
        /// Destination register.
        dst: Reg,
        /// Tested reference.
        obj: Reg,
        /// Class tested against.
        class: ClassId,
    },
    /// `dst = (class) obj` — checked cast.
    Cast {
        /// Destination register.
        dst: Reg,
        /// Cast reference.
        obj: Reg,
        /// Target class.
        class: ClassId,
    },
    /// `dst = new class`.
    New {
        /// Destination register.
        dst: Reg,
        /// Allocated class.
        class: ClassId,
    },
    /// `dst = new elem[len]` (ends its block; charges its own work).
    NewArr {
        /// Destination register.
        dst: Reg,
        /// Element type.
        elem: ElemType,
        /// Dynamic length operand.
        len: Src,
    },
    /// `dst = obj.field`.
    FieldGet {
        /// Destination register.
        dst: Reg,
        /// Base reference register.
        obj: Reg,
        /// Field.
        field: FieldId,
    },
    /// `obj.field = src`.
    FieldSet {
        /// Base reference register.
        obj: Reg,
        /// Field.
        field: FieldId,
        /// Stored operand.
        src: Src,
    },
    /// `dst = arr[idx]`.
    ArrGet {
        /// Destination register.
        dst: Reg,
        /// Array reference register.
        arr: Reg,
        /// Index operand.
        idx: Src,
    },
    /// `arr[idx] = src`.
    ArrSet {
        /// Array reference register.
        arr: Reg,
        /// Index operand.
        idx: Src,
        /// Stored operand.
        src: Src,
    },
    /// `dst = len arr`.
    ArrLen {
        /// Destination register.
        dst: Reg,
        /// Array reference register.
        arr: Reg,
    },
    /// `dst = global::g`.
    GlobalGet {
        /// Destination register.
        dst: Reg,
        /// Global id.
        global: GlobalId,
    },
    /// `global::g = src`.
    GlobalSet {
        /// Global id.
        global: GlobalId,
        /// Stored operand.
        src: Src,
    },
    /// Invoke an IR function or builtin and store the result (ends its
    /// block; charges its own work).
    Call {
        /// Index into [`CompiledFunction::calls`].
        site: u32,
    },
    /// Generic assignment executed by the interpreter's own evaluators —
    /// the correctness backstop for shapes with no dedicated opcode (ends
    /// its block; the evaluators charge their own work).
    Slow {
        /// Original instruction index.
        pc: u32,
    },
}

/// Steps and static work of a run of instructions, as counts per cost
/// class (the prices live in each context's [`CostTable`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charge {
    /// Instructions (one step each).
    pub steps: u32,
    /// Instructions priced `simple`.
    pub simple: u32,
    /// Instructions priced `branch`.
    pub branch: u32,
    /// Instructions priced `mem`.
    pub mem: u32,
    /// Instructions priced `alloc`.
    pub alloc: u32,
}

impl Charge {
    fn work(&self, costs: &CostTable) -> u64 {
        u64::from(self.simple) * costs.simple
            + u64::from(self.branch) * costs.branch
            + u64::from(self.mem) * costs.mem
            + u64::from(self.alloc) * costs.alloc
    }

    fn add(&mut self, other: Charge) {
        self.steps += other.steps;
        self.simple += other.simple;
        self.branch += other.branch;
        self.mem += other.mem;
        self.alloc += other.alloc;
    }

    fn minus(self, other: Charge) -> Charge {
        Charge {
            steps: self.steps - other.steps,
            simple: self.simple - other.simple,
            branch: self.branch - other.branch,
            mem: self.mem - other.mem,
            alloc: self.alloc - other.alloc,
        }
    }
}

/// A basic block: where it starts and what its [`Op::Enter`] charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Instruction index of the block's first instruction.
    pub pc: u32,
    /// Steps and static work of all its instructions.
    pub charge: Charge,
    /// Whether a frame may start here: the block enters with no `Int`
    /// register, or reloads each from the `Value` environment ([`Op::LoadI`]).
    pub resumable: bool,
}

/// Which control-flow edges the dispatch loop must report to the
/// [`EdgeObserver`].
#[derive(Debug, Clone, Default)]
pub enum Observed {
    /// Observe every edge, exactly like the interpreter. Every instruction
    /// is then its own block, and no register is typed.
    #[default]
    All,
    /// Observe only the listed `(from, to)` edges — in the partitioned
    /// runtime, the active plan's PSE edges plus edges into stop nodes.
    Edges(HashSet<(Pc, Pc)>),
}

/// Per-instruction watch flags, read once from an [`Observed`] set.
const ENTERED: u8 = 1;
/// The fall-through edge `(pc, pc + 1)` is watched.
const WATCH_NEXT: u8 = 2;
/// The taken edge of the branch at `pc` is watched.
const WATCH_TAKEN: u8 = 4;

impl Observed {
    /// Per instruction: [`ENTERED`] when some watched edge enters it (a
    /// point a frame may be suspended before and resumed at), plus the
    /// [`WATCH_NEXT`] and [`WATCH_TAKEN`] flags of its outgoing edges.
    fn flags(&self, func: &Function) -> Vec<u8> {
        let n = func.instrs.len();
        match self {
            Observed::All => vec![ENTERED | WATCH_NEXT | WATCH_TAKEN; n],
            Observed::Edges(set) => {
                let mut f = vec![0; n];
                for &(from, to) in set {
                    if from >= n || to >= n {
                        continue;
                    }
                    f[to] |= ENTERED;
                    if to == from + 1 {
                        f[from] |= WATCH_NEXT;
                    }
                    if let Instr::Goto { target } | Instr::If { target, .. } = &func.instrs[from] {
                        if *target == to {
                            f[from] |= WATCH_TAKEN;
                        }
                    }
                }
                f
            }
        }
    }
}

/// Per-function compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Edges the dispatch loop must report (see [`Observed`]).
    pub observed: Observed,
    /// Superinstruction fusion switch. Block metering charges a whole
    /// block in one op, which is what fusing load/op/store pairs bought,
    /// so the engine no longer fuses; the field is accepted and ignored.
    pub fuse: bool,
    /// Fusion start hints; accepted and ignored like [`fuse`](Self::fuse).
    pub fuse_at: Option<HashSet<Pc>>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { observed: Observed::All, fuse: true, fuse_at: None }
    }
}

/// Per-program compilation options: a default plus per-function overrides
/// (the partitioned runtime gives the handler its watched set, and inner
/// functions a fully-unobserved fast configuration).
#[derive(Debug, Clone, Default)]
pub struct CompileHints {
    /// Options for functions without an override.
    pub default: CompileOptions,
    /// Per-function overrides, by function name.
    pub per_fn: HashMap<String, CompileOptions>,
}

/// A compiled function body.
#[derive(Debug)]
pub struct CompiledFunction {
    /// Flattened ops: blocks in original instruction order, then the
    /// trampolines of watched taken edges.
    pub ops: Vec<Op>,
    /// Per op: the advance charge of the ops after it in its block, which
    /// a trap at this op refunds.
    pub refund: Vec<Charge>,
    /// Basic blocks, indexed by [`Op::Enter`].
    pub blocks: Vec<Block>,
    /// Out-of-line call instructions, indexed by [`Op::Call`].
    pub calls: Vec<CallSite>,
    /// Interned constant pool, pre-materialized as runtime values.
    pub consts: Vec<Value>,
    /// Instruction index → op index of its block's [`Op::Enter`]
    /// ([`NO_ENTRY`] for instructions inside a block).
    pub pc_map: Vec<u32>,
    /// Registers given an `i64` slot.
    pub typed_regs: usize,
    /// The watch flags it was compiled under, for the `plain` recompile.
    watch: Vec<u8>,
    /// Set when a speculative load met a non-integer: later frames run
    /// `plain`, so a body whose loads are not integers deoptimizes once.
    failed: AtomicBool,
    plain: OnceLock<Box<CompiledFunction>>,
}

impl CompiledFunction {
    /// The code a new frame of `func` runs: this body, or — once one of
    /// its speculative loads failed — the body compiled without
    /// speculation.
    pub(crate) fn current(&self, program: &Program, func: &Function) -> &CompiledFunction {
        if !self.failed.load(Ordering::Relaxed) {
            return self;
        }
        self.plain.get_or_init(|| Box::new(compile_body(program, func, self.watch.clone(), false)))
    }

    /// The op index a frame resumed at instruction `pc` starts from: the
    /// head of the block `pc` starts, if its entry state holds no `Int`.
    pub fn resume_op(&self, pc: Pc) -> Option<usize> {
        let op = *self.pc_map.get(pc)?;
        if op == NO_ENTRY {
            return None;
        }
        match self.ops[op as usize] {
            Op::Enter { block } if self.blocks[block as usize].resumable => Some(op as usize),
            _ => None,
        }
    }
}

/// All compiled bodies of a program, indexed in program function order.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    fns: Vec<Arc<CompiledFunction>>,
    by_name: HashMap<String, u32>,
}

impl CompiledProgram {
    /// Compiles every function body of `program`.
    pub fn compile(program: &Program, hints: &CompileHints) -> Self {
        let mut fns = Vec::new();
        let mut by_name = HashMap::new();
        for (i, func) in program.functions().enumerate() {
            by_name.insert(func.name.clone(), i as u32);
            let opts = hints.per_fn.get(&func.name).unwrap_or(&hints.default);
            fns.push(Arc::new(compile_function(program, func, opts)));
        }
        CompiledProgram { fns, by_name }
    }

    /// Program index of `name`, if the function exists.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The compiled body at program index `i`.
    pub fn body(&self, i: u32) -> Option<&Arc<CompiledFunction>> {
        self.fns.get(i as usize)
    }

    /// Compiled body for `name`, if the function exists.
    pub fn body_of(&self, name: &str) -> Option<&Arc<CompiledFunction>> {
        self.index_of(name).and_then(|i| self.body(i))
    }

    /// Number of compiled bodies: every function of the program.
    pub fn compiled_bodies(&self) -> usize {
        self.fns.len()
    }
}

/// A register. [`Function::validate`] bounds every variable below
/// [`MAX_LOCALS`], so it fits.
fn reg(v: Var) -> Reg {
    v.0 as Reg
}

/// A body's constant pool under construction: each distinct constant (by
/// [`Const::pool_key`]) once, in first-use order. [`Function::validate`]
/// bounds the distinct constants by [`MAX_CONSTS`], so every index fits.
#[derive(Default)]
struct Pool {
    values: Vec<Value>,
    index: HashMap<PoolKey, u16>,
}

impl Pool {
    fn src(&mut self, op: &Operand) -> Src {
        let c = match op {
            Operand::Var(v) => return Src::Reg(reg(*v)),
            Operand::Const(c) => c,
        };
        let next = self.values.len() as u16;
        Src::Const(*self.index.entry(c.pool_key()).or_insert_with(|| {
            self.values.push(c.to_value());
            next
        }))
    }
}

/// A register's kind on entry to one instruction (see the module docs),
/// one bit per kind so that joining kinds is a bitwise or: `BOT` (no bit)
/// marks an instruction no path reaches, and a join of two different
/// kinds is `UNKNOWN` (every bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kind(u8);

impl Kind {
    const BOT: Kind = Kind(0);
    const NULL: Kind = Kind(1);
    const INT: Kind = Kind(2);
    const BOOL: Kind = Kind(4);
    const FLOAT: Kind = Kind(8);
    const REF: Kind = Kind(16);
    const UNKNOWN: Kind = Kind(u8::MAX);

    fn join(self, other: Kind) -> Kind {
        let j = self.0 | other.0;
        // More than one bit: two different kinds met.
        Kind(if j & j.wrapping_sub(1) == 0 { j } else { u8::MAX })
    }

    fn of_const(c: &Const) -> Kind {
        match c {
            Const::Null => Kind::NULL,
            Const::Bool(_) => Kind::BOOL,
            Const::Int(_) => Kind::INT,
            Const::Float(_) => Kind::FLOAT,
            Const::Str(_) => Kind::UNKNOWN,
        }
    }
}

/// The right-hand side of a typed op: a slot-backed register or a constant.
#[derive(Debug, Clone, Copy)]
enum IntRhs {
    Reg(Var),
    K(i64),
}

/// The typed form of `a op b` when both operands are proven `Int`: the
/// left register, the right-hand side and the operator to apply. A
/// constant on the left commutes (`+`, `*`, `==`, `!=`) or flips (an
/// ordering); otherwise, and for two constants, there is no typed form.
fn int_form(
    op: BinOp,
    a: &Operand,
    b: &Operand,
    kind: impl Fn(&Operand) -> Kind,
) -> Option<(Var, IntRhs, BinOp)> {
    if kind(a) != Kind::INT || kind(b) != Kind::INT {
        return None;
    }
    match (a, b) {
        (Operand::Var(x), Operand::Var(y)) => Some((*x, IntRhs::Reg(*y), op)),
        (Operand::Var(x), Operand::Const(Const::Int(k))) => Some((*x, IntRhs::K(*k), op)),
        (Operand::Const(Const::Int(k)), Operand::Var(y)) => {
            let flipped = match op {
                BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne => op,
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                _ => return None,
            };
            Some((*y, IntRhs::K(*k), flipped))
        }
        _ => None,
    }
}

fn is_int_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
}

/// Whether `rvalue` lowers to a typed op that writes an `i64` slot (given
/// a slot for its destination). With `speculate`, a field load and an
/// array load at an `Int` index do too, guarded: a non-integer value
/// hands the frame to the interpreter (see [`Op::FieldI`]).
fn defines_int(rvalue: &Rvalue, kind: impl Fn(&Operand) -> Kind + Copy, speculate: bool) -> bool {
    match rvalue {
        Rvalue::Use(x) | Rvalue::Unary(UnOp::Neg, x) => kind(x) == Kind::INT,
        Rvalue::Binary(op, a, b) => is_int_arith(*op) && int_form(*op, a, b, kind).is_some(),
        Rvalue::ArrayLen(_) => true,
        Rvalue::FieldGet(..) => speculate,
        Rvalue::ArrayGet(_, idx @ Operand::Var(_)) => speculate && kind(idx) == Kind::INT,
        _ => false,
    }
}

/// Per register: whether speculating it to be an integer is worthwhile —
/// it is an operand of integer-style arithmetic, of an ordering or an
/// array index somewhere in the body. A `Bool` flag read from a field is
/// tested with `==`, which is left out, so it is never speculated.
fn numeric_uses(func: &Function) -> Vec<bool> {
    let mut numeric = vec![false; func.locals];
    let mut mark = |o: &Operand| {
        if let Operand::Var(v) = o {
            numeric[v.index()] = true;
        }
    };
    let ordered =
        |op: BinOp| is_int_arith(op) || matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge);
    for instr in &func.instrs {
        match instr {
            Instr::If { cond, .. } if ordered(cond.op) => {
                mark(&cond.lhs);
                mark(&cond.rhs);
            }
            Instr::Assign { place, rvalue } => {
                if let Place::ArrayElem(_, i) = place {
                    mark(i);
                }
                match rvalue {
                    Rvalue::Binary(op, a, b) if ordered(*op) => {
                        mark(a);
                        mark(b);
                    }
                    Rvalue::ArrayGet(_, i) | Rvalue::NewArray(_, i) => mark(i),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    numeric
}

/// The kind a generic op leaves in its destination: never `Int`, since
/// only typed ops write `i64` slots.
fn generic_kind(rvalue: &Rvalue, kind: impl Fn(&Operand) -> Kind) -> Kind {
    let numeric = |k: Kind| matches!(k, Kind::INT | Kind::BOOL | Kind::FLOAT);
    match rvalue {
        Rvalue::Use(x) => match kind(x) {
            Kind::INT => Kind::UNKNOWN,
            k => k,
        },
        Rvalue::Unary(UnOp::Neg, x) if kind(x) == Kind::FLOAT => Kind::FLOAT,
        Rvalue::Unary(UnOp::Not, _) | Rvalue::InstanceOf(..) => Kind::BOOL,
        Rvalue::Binary(op, _, _) if op.is_comparison() => Kind::BOOL,
        Rvalue::Binary(op, a, b)
            if is_int_arith(*op)
                && numeric(kind(a))
                && numeric(kind(b))
                && (kind(a) == Kind::FLOAT || kind(b) == Kind::FLOAT) =>
        {
            Kind::FLOAT
        }
        Rvalue::Cast(_, v) if kind(&Operand::Var(*v)) == Kind::REF => Kind::REF,
        Rvalue::New(_) | Rvalue::NewArray(..) => Kind::REF,
        _ => Kind::UNKNOWN,
    }
}

/// The successors of instruction `pc` (an `n` successor falls off the end).
fn succs(instr: &Instr, pc: Pc) -> [Option<Pc>; 2] {
    match instr {
        Instr::Goto { target } => [Some(*target), None],
        Instr::If { target, .. } => [Some(*target), Some(pc + 1)],
        Instr::Return { .. } => [None, None],
        _ => [Some(pc + 1), None],
    }
}

/// Basic blocks of a body, for the dataflow passes: `heads[b]` is block
/// `b`'s first instruction, `of[pc]` the block holding `pc`.
struct Blocks {
    heads: Vec<Pc>,
    of: Vec<u32>,
    /// Per block, its successor blocks (`NO_ENTRY` for none).
    next: Vec<[u32; 2]>,
}

impl Blocks {
    fn new(func: &Function, leader: &[bool]) -> Blocks {
        let n = leader.len();
        let mut heads = Vec::new();
        let mut of = Vec::with_capacity(n);
        for (pc, l) in leader.iter().enumerate() {
            if *l {
                heads.push(pc);
            }
            of.push(heads.len() as u32 - 1);
        }
        let next = (0..heads.len())
            .map(|b| {
                let last = heads.get(b + 1).copied().unwrap_or(n) - 1;
                succs(&func.instrs[last], last)
                    .map(|s| s.filter(|&s| s < n).map_or(NO_ENTRY, |s| of[s]))
            })
            .collect();
        Blocks { heads, of, next }
    }

    fn span(&self, b: usize) -> std::ops::Range<Pc> {
        self.heads[b]..self.heads.get(b + 1).copied().unwrap_or(self.of.len())
    }

    /// Successor blocks of block `b`.
    fn succs(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        self.next[b].iter().filter(|&&s| s != NO_ENTRY).map(|&s| s as usize)
    }
}

/// Backward liveness at block heads: register `r` is live on entry to
/// block `b` when bit `r` of `bits[b * words..]` is set, i.e. some path
/// from there reads it before writing it.
struct Live {
    words: usize,
    bits: Vec<u64>,
}

impl Live {
    fn compute(func: &Function, blocks: &Blocks) -> Live {
        let (nb, words) = (blocks.heads.len(), func.locals.div_ceil(64).max(1));
        // Per block: registers read before any write in it (`gen`) and
        // registers it writes (`kill`); then iterate on bitsets only.
        let mut gen = vec![0u64; nb * words];
        let mut kill = vec![0u64; nb * words];
        for b in 0..nb {
            let (g, k) =
                (&mut gen[b * words..(b + 1) * words], &mut kill[b * words..(b + 1) * words]);
            for pc in blocks.span(b).rev() {
                let instr = &func.instrs[pc];
                if let Some(d) = instr.def() {
                    g[d.index() / 64] &= !(1 << (d.index() % 64));
                    k[d.index() / 64] |= 1 << (d.index() % 64);
                }
                instr.each_use(|v| g[v.index() / 64] |= 1 << (v.index() % 64));
            }
        }
        let mut bits = gen.clone();
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                for w in 0..words {
                    let out = blocks.succs(b).fold(0, |o, s| o | bits[s * words + w]);
                    let v = gen[b * words + w] | (out & !kill[b * words + w]);
                    changed |= v != bits[b * words + w];
                    bits[b * words + w] = v;
                }
            }
        }
        Live { words, bits }
    }

    fn has(&self, b: usize, r: usize) -> bool {
        self.bits[b * self.words + r / 64] & (1 << (r % 64)) != 0
    }
}

/// Forward kind inference over one body. `at[pc * locals + r]` is the kind
/// of register `r` on entry to `pc`. `targets` marks the instructions a
/// frame may be resumed at, `typed` the registers that may be `Int`, and
/// `spec` those whose loads (or, as parameters, whose arguments) are
/// speculated to be integers.
struct Kinds {
    locals: usize,
    at: Vec<Kind>,
    /// Per register: whether a reached typed op defines it (a parameter
    /// speculated at entry counts) — the registers that need a slot.
    defs: Vec<bool>,
}

impl Kinds {
    fn infer(
        func: &Function,
        blocks: &Blocks,
        targets: &[bool],
        typed: &[bool],
        spec: &[bool],
    ) -> Kinds {
        let (n, l, nb) = (func.instrs.len(), func.locals, blocks.heads.len());
        // Entry states per block; `Bot` everywhere a block is unreached.
        let mut entry = vec![Kind::BOT; nb * l];
        let mut reached = vec![false; nb];
        for (r, k) in entry[..l].iter_mut().enumerate() {
            *k = match r < func.params {
                true if typed[r] && spec[r] => Kind::INT,
                true => Kind::UNKNOWN,
                false => Kind::NULL,
            };
        }
        reached[0] = true;
        // A resumed frame holds the continuation's live variables, which
        // have the kinds flowing in from the entry (the block head checks
        // them), and `Null` in every other slot. A target no path from the
        // entry reaches stays `Bot`: untyped, and resumable as such.
        if targets.contains(&true) {
            let live = Live::compute(func, blocks);
            for (b, &head) in blocks.heads.iter().enumerate() {
                if targets[head] {
                    for (r, k) in entry[b * l..(b + 1) * l].iter_mut().enumerate() {
                        *k = k.join(if live.has(b, r) { Kind::BOT } else { Kind::NULL });
                    }
                }
            }
        }
        let mut state = vec![Kind::BOT; l];
        // Per instruction: the kinds on entry, and whether it is a typed
        // definition. A block is walked again whenever its entry state
        // changes, so its last walk — the one these keep — saw the final
        // state; unreached blocks keep `Bot`.
        let mut at = vec![Kind::BOT; n * l];
        let mut int_def = vec![false; n];
        let mut dirty = reached.clone();
        while let Some(b) = dirty.iter().position(|d| *d) {
            for b in b..nb {
                if !std::mem::take(&mut dirty[b]) {
                    continue;
                }
                state.copy_from_slice(&entry[b * l..(b + 1) * l]);
                for pc in blocks.span(b) {
                    at[pc * l..(pc + 1) * l].copy_from_slice(&state);
                    int_def[pc] = transfer(&func.instrs[pc], &mut state, typed, spec);
                }
                for s in blocks.succs(b) {
                    let mut changed = !reached[s];
                    for (k, o) in entry[s * l..(s + 1) * l].iter_mut().zip(&state) {
                        let j = k.join(*o);
                        changed |= j != *k;
                        *k = j;
                    }
                    reached[s] = true;
                    dirty[s] |= changed;
                }
            }
        }
        let mut defs: Vec<bool> =
            entry[..l.min(func.params)].iter().map(|k| *k == Kind::INT).collect();
        defs.resize(l, false);
        for (instr, _) in func.instrs.iter().zip(&int_def).filter(|(_, d)| **d) {
            if let Some(d) = instr.def() {
                defs[d.index()] = true;
            }
        }
        Kinds { locals: l, at, defs }
    }

    /// No inference: every register `Unknown` everywhere.
    fn unknown() -> Kinds {
        Kinds { locals: 0, at: Vec::new(), defs: Vec::new() }
    }

    fn get(&self, pc: Pc, r: usize) -> Kind {
        self.at.get(pc * self.locals + r).copied().unwrap_or(Kind::UNKNOWN)
    }

    fn of(&self, pc: Pc, op: &Operand) -> Kind {
        match op {
            Operand::Var(v) => self.get(pc, v.index()),
            Operand::Const(c) => Kind::of_const(c),
        }
    }

    fn any_int(&self, pc: Pc) -> bool {
        self.at
            .get(pc * self.locals..(pc + 1) * self.locals)
            .is_some_and(|s| s.contains(&Kind::INT))
    }
}

/// Applies one instruction to the register kinds in `state`; returns
/// whether it defines an `Int`.
fn transfer(instr: &Instr, state: &mut [Kind], typed: &[bool], spec: &[bool]) -> bool {
    let Instr::Assign { place: Place::Var(d), rvalue } = instr else {
        return false;
    };
    let kind = |o: &Operand| match o {
        Operand::Var(v) => state[v.index()],
        Operand::Const(c) => Kind::of_const(c),
    };
    let d = d.index();
    // An operand no path has reached yet says nothing: the result waits
    // for it rather than widening.
    let mut unreached = false;
    rvalue.each_use(|v| unreached |= state[v.index()] == Kind::BOT);
    state[d] = if unreached {
        Kind::BOT
    } else if typed[d] && defines_int(rvalue, kind, spec[d]) {
        Kind::INT
    } else {
        generic_kind(rvalue, kind)
    };
    state[d] == Kind::INT
}

/// Whether an instruction ends its basic block: control transfers, and the
/// ops that charge their own (dynamic) work — calls, array allocation and
/// the shapes delegated to the interpreter.
fn ends_block(instr: &Instr) -> bool {
    match instr {
        Instr::Goto { .. } | Instr::If { .. } | Instr::Return { .. } => true,
        Instr::Nop => false,
        Instr::Assign { place, rvalue } => match rvalue {
            Rvalue::Invoke { .. } | Rvalue::InvokeNative { .. } | Rvalue::NewArray(..) => true,
            Rvalue::Use(_) => false,
            _ => !matches!(place, Place::Var(_)),
        },
    }
}

/// The steps and static work an instruction costs (zero work for the
/// block-ending ops that charge their own).
fn static_charge(instr: &Instr) -> Charge {
    let mut c = Charge { steps: 1, ..Charge::default() };
    match instr {
        Instr::Nop | Instr::Return { .. } => c.simple = 1,
        Instr::Goto { .. } | Instr::If { .. } => c.branch = 1,
        Instr::Assign { .. } if ends_block(instr) => {}
        Instr::Assign { place: Place::Var(_), rvalue } => match rvalue {
            Rvalue::New(_) => c.alloc = 1,
            Rvalue::FieldGet(..)
            | Rvalue::ArrayGet(..)
            | Rvalue::ArrayLen(_)
            | Rvalue::GlobalGet(_) => c.mem = 1,
            _ => c.simple = 1,
        },
        Instr::Assign { .. } => {
            c.simple = 1;
            c.mem = 1;
        }
    }
    c
}

fn can_fall_through(instr: &Instr) -> bool {
    !matches!(instr, Instr::Goto { .. } | Instr::Return { .. })
}

fn target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jmp { t } | Op::Br { t, .. } | Op::BrCmpI { t, .. } | Op::BrCmpIK { t, .. } => Some(t),
        _ => None,
    }
}

struct FnCompiler<'a> {
    func: &'a Function,
    fn_index: HashMap<&'a str, u32>,
    consts: Pool,
    calls: Vec<CallSite>,
    kinds: Kinds,
    /// Register → `i64` slot, for registers that may be `Int`.
    slots: Vec<Option<Slot>>,
    /// Per register: whether its loads are speculated to be integers.
    spec: Vec<bool>,
}

/// Compiles one function body.
///
/// `func` must be valid ([`Function::validate`]), as every function of a
/// [`Program`] is: a valid body always compiles.
pub fn compile_function(
    program: &Program,
    func: &Function,
    opts: &CompileOptions,
) -> CompiledFunction {
    compile_body(program, func, opts.observed.flags(func), true)
}

/// [`compile_function`] under the [`Observed::flags`] `watch`, with or
/// without speculative integer loads.
fn compile_body(
    program: &Program,
    func: &Function,
    watch: Vec<u8>,
    speculate: bool,
) -> CompiledFunction {
    let n = func.instrs.len();

    // Leaders: the entry, every branch target, every watched edge's target
    // (so resumption entry points are block heads), and the instruction
    // after each block-ending one.
    let targets: Vec<bool> = watch.iter().map(|f| f & ENTERED != 0).collect();
    let mut leader = targets.clone();
    for (pc, instr) in func.instrs.iter().enumerate() {
        if let Instr::Goto { target } | Instr::If { target, .. } = instr {
            leader[*target] = true;
        }
        if ends_block(instr) && pc + 1 < n {
            leader[pc + 1] = true;
        }
    }
    // Parameters are speculated only when nothing but the call enters
    // instruction 0, so their guards run once, before it.
    let entry_only = !leader[0];
    leader[0] = true;

    // Kinds, then slots for the registers some reached typed op defines.
    // Past INT_SLOTS of them, the lowest-numbered keep a slot and the
    // kinds are recomputed with the rest on the generic path.
    // A body without a backward branch runs each instruction at most once
    // per frame: proving kinds would cost more than typed ops save.
    let loops = func.instrs.iter().enumerate().any(|(pc, instr)| {
        matches!(instr, Instr::Goto { target } | Instr::If { target, .. } if *target <= pc)
    });
    let mut typed = vec![true; func.locals];
    let mut spec = if speculate && loops { numeric_uses(func) } else { vec![false; func.locals] };
    for s in spec.iter_mut().take(func.params) {
        *s &= entry_only;
    }
    let flow = loops.then(|| Blocks::new(func, &leader));
    let infer = |typed: &[bool]| match &flow {
        Some(flow) => Kinds::infer(func, flow, &targets, typed, &spec),
        None => Kinds::unknown(),
    };
    let mut kinds = infer(&typed);
    if kinds.defs.iter().filter(|d| **d).count() > INT_SLOTS {
        let mut kept = 0;
        for (t, d) in typed.iter_mut().zip(&kinds.defs) {
            *t = *d && kept < INT_SLOTS;
            kept += usize::from(*t);
        }
        kinds = infer(&typed);
    }
    let mut slots = vec![None; func.locals];
    let mut next: Slot = 0;
    for (s, d) in slots.iter_mut().zip(&kinds.defs) {
        if *d {
            *s = Some(next);
            next += 1;
        }
    }

    let typed_regs: Vec<(usize, Slot)> =
        slots.iter().enumerate().filter_map(|(r, s)| Some((r, (*s)?))).collect();
    let mut c = FnCompiler {
        func,
        fn_index: program
            .functions()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i as u32))
            .collect(),
        consts: Pool::default(),
        calls: Vec::new(),
        kinds,
        slots,
        spec,
    };

    let mut ops: Vec<Op> = Vec::with_capacity(n * 2);
    // Until a block closes, `refund` holds each op's prefix charge.
    let mut refund: Vec<Charge> = Vec::with_capacity(n * 2);
    let mut blocks: Vec<Block> = Vec::new();
    let mut pc_map = vec![NO_ENTRY; n];
    let mut watched_taken: Vec<(usize, Pc, Pc)> = Vec::new();
    let mut prefix = Charge::default();
    let close = |blocks: &mut Vec<Block>, refund: &mut [Charge], start: usize, total: Charge| {
        if let Some(b) = blocks.last_mut() {
            b.charge = total;
            for r in &mut refund[start + 1..] {
                *r = total.minus(*r);
            }
        }
    };
    let mut block_op = 0;
    for pc in 0..n {
        let instr = &func.instrs[pc];
        if leader[pc] {
            close(&mut blocks, &mut refund, block_op, prefix);
            prefix = Charge::default();
            block_op = ops.len();
            pc_map[pc] = ops.len() as u32;
            ops.push(Op::Enter { block: blocks.len() as u32 });
            refund.push(Charge::default());
            // The entry and every resume point reload the `Int`
            // registers they enter with from the `Value` environment.
            let guarded = pc == 0 || targets[pc];
            blocks.push(Block {
                pc: pc as u32,
                charge: Charge::default(),
                resumable: guarded || !c.kinds.any_int(pc),
            });
            if guarded {
                for &(r, d) in &typed_regs {
                    if c.kinds.get(pc, r) == Kind::INT {
                        ops.push(Op::LoadI { r: r as Reg, d, pc: pc as u32 });
                        refund.push(prefix);
                    }
                }
            }
        }
        prefix.add(static_charge(instr));
        if let Some(op) = c.lower(pc) {
            if let Instr::Goto { target } | Instr::If { target, .. } = instr {
                if watch[pc] & WATCH_TAKEN != 0 {
                    watched_taken.push((ops.len(), pc, *target));
                }
            }
            ops.push(op);
            refund.push(prefix);
        }
        if can_fall_through(instr) && pc + 1 < n && watch[pc] & WATCH_NEXT != 0 {
            ops.push(Op::Observe { from: pc as u32, to: pc as u32 + 1 });
            refund.push(prefix);
        }
    }
    close(&mut blocks, &mut refund, block_op, prefix);
    if can_fall_through(&func.instrs[n - 1]) {
        ops.push(Op::OffEnd);
        refund.push(Charge::default());
    }

    // Branch targets hold instruction indices; every target is a leader,
    // so `pc_map` has its block head.
    for op in &mut ops {
        if let Some(t) = target_mut(op) {
            *t = pc_map[*t as usize];
        }
    }
    // A watched taken edge goes through a trampoline that reports it.
    for (at, from, to) in watched_taken {
        let tramp = ops.len() as u32;
        ops.push(Op::ObserveJmp { from: from as u32, to: to as u32, t: pc_map[to] });
        refund.push(Charge::default());
        *target_mut(&mut ops[at]).expect("watched taken edges start at branches") = tramp;
    }

    let typed_regs = typed_regs.len();
    CompiledFunction {
        ops,
        refund,
        blocks,
        calls: c.calls,
        consts: c.consts.values,
        pc_map,
        typed_regs,
        watch,
        failed: AtomicBool::new(false),
        plain: OnceLock::new(),
    }
}

impl FnCompiler<'_> {
    fn slot(&self, v: Var) -> Option<Slot> {
        self.slots[v.index()]
    }

    /// The slot of a register proven `Int` at `pc`.
    fn int_slot(&self, v: Var) -> Slot {
        self.slots[v.index()].expect("an Int register has a slot")
    }

    /// Lowers the instruction at `pc` (a `nop` lowers to nothing: its
    /// block head charges it). Branch targets are still instruction
    /// indices.
    fn lower(&mut self, pc: Pc) -> Option<Op> {
        let op = match &self.func.instrs[pc] {
            Instr::Nop => return None,
            Instr::Return { value } => Op::Ret(match value {
                Some(v) => Some(self.consts.src(v)),
                None => None,
            }),
            Instr::Goto { target } => Op::Jmp { t: *target as u32 },
            Instr::If { cond, target } => {
                let t = *target as u32;
                let typed = if cond.op.is_comparison() {
                    int_form(cond.op, &cond.lhs, &cond.rhs, |o| self.kinds.of(pc, o))
                } else {
                    None
                };
                match typed {
                    Some((x, IntRhs::Reg(y), cmp)) => {
                        Op::BrCmpI { cmp: cmp_of(cmp), a: self.int_slot(x), b: self.int_slot(y), t }
                    }
                    Some((x, IntRhs::K(k), cmp)) => {
                        Op::BrCmpIK { cmp: cmp_of(cmp), a: self.int_slot(x), t, k }
                    }
                    None => Op::Br {
                        op: cond.op,
                        a: self.consts.src(&cond.lhs),
                        b: self.consts.src(&cond.rhs),
                        t,
                    },
                }
            }
            Instr::Assign { place, rvalue } => self.lower_assign(pc, place, rvalue),
        };
        Some(op)
    }

    fn lower_assign(&mut self, pc: Pc, place: &Place, rvalue: &Rvalue) -> Op {
        // Calls store through any place shape; everything else gets a
        // dedicated opcode only for register destinations and plain stores.
        if let Rvalue::Invoke { callee, args } | Rvalue::InvokeNative { callee, args } = rvalue {
            let native = matches!(rvalue, Rvalue::InvokeNative { .. });
            let dst = match place {
                Place::Var(v) => CallDst::Reg(reg(*v)),
                Place::Field(b, f) => CallDst::Field(reg(*b), *f),
                Place::ArrayElem(b, i) => CallDst::Elem(reg(*b), self.consts.src(i)),
                Place::Global(g) => CallDst::Global(*g),
            };
            let callee = if native {
                Callee::Native(callee.as_str().into())
            } else {
                match self.fn_index.get(callee.as_str()) {
                    Some(i) => Callee::Fn(*i),
                    None => Callee::Pure(callee.as_str().into()),
                }
            };
            let args = args.iter().map(|a| self.consts.src(a)).collect();
            self.calls.push(CallSite { dst, callee, args });
            return Op::Call { site: self.calls.len() as u32 - 1 };
        }
        let kind = |o: &Operand| self.kinds.of(pc, o);
        let int_var = |o: &Operand| match o {
            Operand::Var(v) if kind(o) == Kind::INT => Some(*v),
            _ => None,
        };
        match (place, rvalue) {
            (Place::Var(d), _)
                if self.slot(*d).is_some() && defines_int(rvalue, kind, self.spec[d.index()]) =>
            {
                self.lower_int_def(pc, *d, rvalue)
            }
            (Place::Var(d), Rvalue::Use(x)) => Op::Mov { dst: reg(*d), src: self.consts.src(x) },
            (Place::Var(d), Rvalue::Unary(op, x)) => {
                Op::Un { op: *op, dst: reg(*d), src: self.consts.src(x) }
            }
            (Place::Var(d), Rvalue::Binary(op, x, y)) => {
                match int_form(*op, x, y, kind).filter(|_| op.is_comparison()) {
                    Some((a, IntRhs::Reg(b), cmp)) => Op::CmpI {
                        cmp: cmp_of(cmp),
                        dst: reg(*d),
                        a: self.int_slot(a),
                        b: self.int_slot(b),
                    },
                    Some((a, IntRhs::K(k), cmp)) => {
                        Op::CmpIK { cmp: cmp_of(cmp), dst: reg(*d), a: self.int_slot(a), k }
                    }
                    None => Op::Bin {
                        op: *op,
                        dst: reg(*d),
                        a: self.consts.src(x),
                        b: self.consts.src(y),
                    },
                }
            }
            (Place::Var(d), Rvalue::InstanceOf(v, class)) => {
                Op::InstanceOf { dst: reg(*d), obj: reg(*v), class: *class }
            }
            (Place::Var(d), Rvalue::Cast(class, v)) => {
                Op::Cast { dst: reg(*d), obj: reg(*v), class: *class }
            }
            (Place::Var(d), Rvalue::New(class)) => Op::New { dst: reg(*d), class: *class },
            (Place::Var(d), Rvalue::NewArray(elem, len)) => {
                Op::NewArr { dst: reg(*d), elem: *elem, len: self.consts.src(len) }
            }
            (Place::Var(d), Rvalue::FieldGet(v, field)) => {
                Op::FieldGet { dst: reg(*d), obj: reg(*v), field: *field }
            }
            (Place::Var(d), Rvalue::ArrayGet(v, idx)) => match int_var(idx) {
                Some(i) => Op::ArrGetI { dst: reg(*d), arr: reg(*v), idx: self.int_slot(i) },
                None => Op::ArrGet { dst: reg(*d), arr: reg(*v), idx: self.consts.src(idx) },
            },
            (Place::Var(d), Rvalue::ArrayLen(v)) => Op::ArrLen { dst: reg(*d), arr: reg(*v) },
            (Place::Var(d), Rvalue::GlobalGet(g)) => Op::GlobalGet { dst: reg(*d), global: *g },
            (Place::Field(b, f), Rvalue::Use(x)) => {
                Op::FieldSet { obj: reg(*b), field: *f, src: self.consts.src(x) }
            }
            (Place::ArrayElem(b, i), Rvalue::Use(x)) => match int_var(i) {
                Some(iv) => {
                    Op::ArrSetI { arr: reg(*b), idx: self.int_slot(iv), src: self.consts.src(x) }
                }
                None => {
                    Op::ArrSet { arr: reg(*b), idx: self.consts.src(i), src: self.consts.src(x) }
                }
            },
            (Place::Global(g), Rvalue::Use(x)) => {
                Op::GlobalSet { global: *g, src: self.consts.src(x) }
            }
            // Rare shapes (e.g. `a.f = b + c`) delegate to the
            // interpreter's evaluators for that one instruction.
            _ => Op::Slow { pc: pc as u32 },
        }
    }

    /// A typed definition of `d` (which has a slot): `rvalue` satisfies
    /// [`defines_int`] at `pc`.
    fn lower_int_def(&mut self, pc: Pc, d: Var, rvalue: &Rvalue) -> Op {
        let (dst, ds) = (reg(d), self.int_slot(d));
        let kind = |o: &Operand| self.kinds.of(pc, o);
        match rvalue {
            Rvalue::Use(Operand::Var(s)) => Op::MovI { dst, d: ds, s: self.int_slot(*s) },
            Rvalue::Use(Operand::Const(Const::Int(k))) => Op::ConstI { dst, d: ds, k: *k },
            Rvalue::Unary(UnOp::Neg, Operand::Var(s)) => {
                Op::NegI { dst, d: ds, s: self.int_slot(*s) }
            }
            Rvalue::Unary(UnOp::Neg, Operand::Const(Const::Int(k))) => {
                Op::ConstI { dst, d: ds, k: k.wrapping_neg() }
            }
            Rvalue::ArrayLen(v) => Op::ArrLenI { dst, d: ds, arr: reg(*v) },
            Rvalue::FieldGet(v, field) => {
                Op::FieldI { dst, d: ds, obj: reg(*v), field: *field, pc: pc as u32 }
            }
            Rvalue::ArrayGet(v, Operand::Var(i)) => {
                Op::ElemI { dst, d: ds, arr: reg(*v), idx: self.int_slot(*i), pc: pc as u32 }
            }
            Rvalue::Binary(op, x, y) => {
                let (a, rhs, op) = int_form(*op, x, y, kind).expect("defines_int checked the form");
                let a = self.int_slot(a);
                match rhs {
                    IntRhs::Reg(b) => {
                        let b = self.int_slot(b);
                        match op {
                            BinOp::Add => Op::AddI { dst, d: ds, a, b },
                            BinOp::Sub => Op::SubI { dst, d: ds, a, b },
                            BinOp::Mul => Op::MulI { dst, d: ds, a, b },
                            BinOp::Div => Op::DivI { dst, d: ds, a, b },
                            _ => Op::RemI { dst, d: ds, a, b },
                        }
                    }
                    IntRhs::K(k) => match op {
                        BinOp::Add => Op::AddIK { dst, d: ds, a, k },
                        BinOp::Sub => Op::SubIK { dst, d: ds, a, k },
                        BinOp::Mul => Op::MulIK { dst, d: ds, a, k },
                        BinOp::Div => Op::DivIK { dst, d: ds, a, k },
                        _ => Op::RemIK { dst, d: ds, a, k },
                    },
                }
            }
            _ => unreachable!("defines_int admits no other shape"),
        }
    }
}

#[inline]
fn val<'a>(env: &'a [Value], consts: &'a [Value], s: Src) -> &'a Value {
    match s {
        Src::Reg(r) => &env[r as usize],
        Src::Const(c) => &consts[c as usize],
    }
}

/// Index into the `i64` file. Slots are below [`INT_SLOTS`] by
/// construction; the mask only lets the compiler drop the bounds check.
#[inline(always)]
fn at(s: Slot) -> usize {
    usize::from(s) & (INT_SLOTS - 1)
}

/// Writes an integer into a `Value` register, in place when it already
/// holds one.
#[inline(always)]
fn put_int(slot: &mut Value, v: i64) {
    match slot {
        Value::Int(x) => *x = v,
        other => *other = Value::Int(v),
    }
}

fn cmp_of(op: BinOp) -> Cmp {
    Cmp::of(op).expect("typed compares lower only comparison operators")
}

#[inline(always)]
fn div_i(x: i64, y: i64) -> Result<i64, IrError> {
    if y == 0 {
        return Err(IrError::DivideByZero);
    }
    Ok(x.wrapping_div(y))
}

#[inline(always)]
fn rem_i(x: i64, y: i64) -> Result<i64, IrError> {
    if y == 0 {
        return Err(IrError::DivideByZero);
    }
    Ok(x.wrapping_rem(y))
}

/// Binary op with an allocation-free integer fast lane; all other operand
/// kinds delegate to the interpreter's [`binop`] for identical semantics.
#[inline]
fn bin_fast(op: BinOp, a: &Value, b: &Value) -> Result<Value, IrError> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        let (x, y) = (*x, *y);
        return Ok(match op {
            BinOp::Add => Value::Int(x.wrapping_add(y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
            BinOp::Div => Value::Int(div_i(x, y)?),
            BinOp::Rem => Value::Int(rem_i(x, y)?),
            BinOp::And => Value::Int(x & y),
            BinOp::Or => Value::Int(x | y),
            cmp => Value::Bool(cmp_of(cmp).holds(x, y)),
        });
    }
    binop(op, a.clone(), b.clone())
}

/// The dispatch-loop VM. Borrowed per execution; owns the (tiny) program
/// function table so calls resolve by index.
pub(crate) struct Vm<'p> {
    program: &'p Program,
    cp: &'p CompiledProgram,
    ftab: Vec<&'p Function>,
    interp: Interp<'p>,
    fallbacks: &'p AtomicU64,
}

impl<'p> Vm<'p> {
    pub(crate) fn new(
        program: &'p Program,
        cp: &'p CompiledProgram,
        fallbacks: &'p AtomicU64,
    ) -> Self {
        Vm {
            program,
            cp,
            ftab: program.functions().collect(),
            interp: Interp::new(program),
            fallbacks,
        }
    }

    /// Calls program function `idx`.
    pub(crate) fn call_fn(
        &self,
        ctx: &mut ExecCtx,
        idx: u32,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Option<Value>, IrError> {
        let func = self.ftab[idx as usize];
        let code = self.cp.body(idx).expect("every function has a body");
        match self.exec(
            ctx,
            code.current(self.program, func),
            func,
            frame_env(func, args)?,
            0,
            None,
            depth,
        )? {
            Outcome::Finished(v) => Ok(v),
            Outcome::Suspended(_) => unreachable!("suspension without observer"),
        }
    }

    fn store_call_dst(
        &self,
        ctx: &mut ExecCtx,
        env: &mut [Value],
        dst: &CallDst,
        consts: &[Value],
        value: Value,
    ) -> Result<(), IrError> {
        match dst {
            CallDst::Reg(r) => {
                env[*r as usize] = value;
                Ok(())
            }
            CallDst::Field(b, f) => {
                ctx.work += ctx.costs.mem;
                let r = env[*b as usize].as_ref("field store")?;
                ctx.heap.set_field(r, *f, value)
            }
            CallDst::Elem(b, i) => {
                ctx.work += ctx.costs.mem;
                let r = env[*b as usize].as_ref("array store")?;
                let i = val(env, consts, *i).as_int("array index")?;
                ctx.heap.array_set(r, i, value)
            }
            CallDst::Global(g) => {
                ctx.work += ctx.costs.mem;
                ctx.globals[g.index()] = value;
                Ok(())
            }
        }
    }

    /// Runs one call instruction: charges its work and stores the result,
    /// exactly as the interpreter's invoke arms do.
    fn call(
        &self,
        ctx: &mut ExecCtx,
        env: &mut [Value],
        consts: &[Value],
        site: &CallSite,
        depth: usize,
    ) -> Result<(), IrError> {
        ctx.work += ctx.costs.invoke;
        let argv: Vec<Value> = site.args.iter().map(|s| val(env, consts, *s).clone()).collect();
        let v = match &site.callee {
            Callee::Fn(idx) => self.call_fn(ctx, *idx, argv, depth + 1)?.unwrap_or(Value::Null),
            Callee::Pure(name) => {
                let entry = ctx
                    .builtins
                    .get(name)
                    .cloned()
                    .ok_or_else(|| IrError::Unresolved(format!("callee `{name}`")))?;
                if entry.native {
                    return Err(IrError::Type(format!(
                        "`{name}` is native; use a native invocation"
                    )));
                }
                ctx.work += (entry.cost)(&ctx.heap, &argv);
                (entry.func)(&mut ctx.heap, &argv)?
            }
            Callee::Native(name) => {
                let entry = ctx
                    .builtins
                    .get(name)
                    .cloned()
                    .ok_or_else(|| IrError::Unresolved(format!("native `{name}`")))?;
                ctx.work += (entry.cost)(&ctx.heap, &argv);
                let digest = if ctx.trace_digests {
                    crate::marshal::deep_digest_many(&ctx.heap, &argv)?
                } else {
                    String::new()
                };
                ctx.trace.push(TraceEvent { callee: name.to_string(), args_digest: digest });
                (entry.func)(&mut ctx.heap, &argv)?
            }
        };
        self.store_call_dst(ctx, env, &site.dst, consts, v)
    }

    /// What a failed speculative load at op `ip` (instruction `pc`) gives
    /// back: the advance charge of its own instruction and of the rest of
    /// its block.
    fn load_refund(&self, code: &CompiledFunction, func: &Function, ip: usize, pc: u32) -> Charge {
        let mut back = code.refund[ip];
        back.add(static_charge(&func.instrs[pc as usize]));
        back
    }

    /// A speculation failed before instruction `pc` ran: refunds `back`,
    /// the advance charge of the instructions that did not run, marks the
    /// body so later frames run without speculation, and continues this
    /// frame on the interpreter from `pc`.
    #[allow(clippy::too_many_arguments)]
    #[cold]
    fn deopt(
        &self,
        ctx: &mut ExecCtx,
        code: &CompiledFunction,
        func: &Function,
        env: Vec<Value>,
        back: Charge,
        pc: u32,
        observer: Option<&mut dyn EdgeObserver>,
        depth: usize,
    ) -> Result<Outcome, IrError> {
        ctx.steps -= u64::from(back.steps);
        ctx.work -= back.work(&ctx.costs);
        code.failed.store(true, Ordering::Relaxed);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.interp.exec_frame(ctx, func, env, pc as usize, observer, depth)
    }

    /// Executes `code` from op index `entry_op`, which must be a block
    /// head a frame may start at (see [`CompiledFunction::resume_op`]).
    ///
    /// Work, steps, trap points and edge observation all match
    /// [`Interp::exec_frame`] at every point the caller can see; see the
    /// module docs for the contract.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec(
        &self,
        ctx: &mut ExecCtx,
        code: &CompiledFunction,
        func: &Function,
        mut env: Vec<Value>,
        entry_op: usize,
        mut observer: Option<&mut dyn EdgeObserver>,
        depth: usize,
    ) -> Result<Outcome, IrError> {
        if depth > 64 {
            return Err(IrError::Type(format!("call depth exceeded at `{}`", func.name)));
        }
        let consts = &code.consts[..];
        let ops = &code.ops[..];
        let mut ints = [0i64; INT_SLOTS];
        let mut ip = entry_op;
        // Each arm either falls through to the next op, jumps (`continue`),
        // returns, or traps by breaking out of the loop with the error.
        let trap = loop {
            macro_rules! t {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => break e,
                    }
                };
            }
            // Continue at op `target`. A block head there is charged
            // inline, sparing the dispatch of its `Enter`; one that would
            // cross the step limit hands the frame to the interpreter.
            macro_rules! goto {
                ($target:expr) => {{
                    let target: usize = $target;
                    if let Op::Enter { block } = ops[target] {
                        let b = &code.blocks[block as usize];
                        let steps = u64::from(b.charge.steps);
                        if ctx.step_limit.saturating_sub(ctx.steps) < steps {
                            let pc = b.pc as usize;
                            return self.interp.exec_frame(ctx, func, env, pc, observer, depth);
                        }
                        ctx.steps += steps;
                        ctx.work += b.charge.work(&ctx.costs);
                        ip = target + 1;
                    } else {
                        ip = target;
                    }
                    continue;
                }};
            }
            match &ops[ip] {
                Op::Enter { .. } => goto!(ip),
                Op::Observe { from, to } => {
                    let (from, to) = (*from as usize, *to as usize);
                    if let Some(obs) = observer.as_deref_mut() {
                        if obs.on_edge(from, to, &env, &ctx.heap, ctx.work) == EdgeAction::Suspend {
                            return Ok(Outcome::Suspended(SuspendPoint { from, to, env }));
                        }
                    }
                }
                Op::ObserveJmp { from, to, t } => {
                    let (from, to) = (*from as usize, *to as usize);
                    if let Some(obs) = observer.as_deref_mut() {
                        if obs.on_edge(from, to, &env, &ctx.heap, ctx.work) == EdgeAction::Suspend {
                            return Ok(Outcome::Suspended(SuspendPoint { from, to, env }));
                        }
                    }
                    goto!(*t as usize);
                }
                Op::OffEnd => {
                    return Err(IrError::Invalid(format!(
                        "control fell off the end of `{}`",
                        func.name
                    )));
                }
                Op::Ret(s) => {
                    let v = s.map(|s| val(&env, consts, s).clone());
                    return Ok(Outcome::Finished(v));
                }
                Op::Jmp { t } => goto!(*t as usize),
                Op::Br { op, a, b, t } => {
                    if t!(bin_fast(*op, val(&env, consts, *a), val(&env, consts, *b))).truthy() {
                        goto!(*t as usize);
                    }
                    goto!(ip + 1);
                }
                Op::BrCmpI { cmp, a, b, t } => {
                    if cmp.holds(ints[at(*a)], ints[at(*b)]) {
                        goto!(*t as usize);
                    }
                    goto!(ip + 1);
                }
                Op::BrCmpIK { cmp, a, t, k } => {
                    if cmp.holds(ints[at(*a)], *k) {
                        goto!(*t as usize);
                    }
                    goto!(ip + 1);
                }
                Op::ConstI { dst, d, k } => {
                    ints[at(*d)] = *k;
                    put_int(&mut env[*dst as usize], *k);
                }
                Op::MovI { dst, d, s } => {
                    let v = ints[at(*s)];
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::NegI { dst, d, s } => {
                    let v = ints[at(*s)].wrapping_neg();
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::AddI { dst, d, a, b } => {
                    let v = ints[at(*a)].wrapping_add(ints[at(*b)]);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::SubI { dst, d, a, b } => {
                    let v = ints[at(*a)].wrapping_sub(ints[at(*b)]);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::MulI { dst, d, a, b } => {
                    let v = ints[at(*a)].wrapping_mul(ints[at(*b)]);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::DivI { dst, d, a, b } => {
                    let v = t!(div_i(ints[at(*a)], ints[at(*b)]));
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::RemI { dst, d, a, b } => {
                    let v = t!(rem_i(ints[at(*a)], ints[at(*b)]));
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::AddIK { dst, d, a, k } => {
                    let v = ints[at(*a)].wrapping_add(*k);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::SubIK { dst, d, a, k } => {
                    let v = ints[at(*a)].wrapping_sub(*k);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::MulIK { dst, d, a, k } => {
                    let v = ints[at(*a)].wrapping_mul(*k);
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::DivIK { dst, d, a, k } => {
                    let v = t!(div_i(ints[at(*a)], *k));
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::RemIK { dst, d, a, k } => {
                    let v = t!(rem_i(ints[at(*a)], *k));
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::CmpI { cmp, dst, a, b } => {
                    env[*dst as usize] = Value::Bool(cmp.holds(ints[at(*a)], ints[at(*b)]));
                }
                Op::CmpIK { cmp, dst, a, k } => {
                    env[*dst as usize] = Value::Bool(cmp.holds(ints[at(*a)], *k));
                }
                Op::ArrLenI { dst, d, arr } => {
                    let r = t!(env[*arr as usize].as_ref("array length"));
                    let v = t!(ctx.heap.array_len(r)) as i64;
                    ints[at(*d)] = v;
                    put_int(&mut env[*dst as usize], v);
                }
                Op::LoadI { r, d, pc } => match env[*r as usize] {
                    Value::Int(v) => ints[at(*d)] = v,
                    _ => {
                        let back = code.refund[ip];
                        return self.deopt(ctx, code, func, env, back, *pc, observer, depth);
                    }
                },
                Op::FieldI { dst, d, obj, field, pc } => {
                    let r = t!(env[*obj as usize].as_ref("field load"));
                    match t!(ctx.heap.field(r, *field)) {
                        Value::Int(v) => {
                            ints[at(*d)] = v;
                            put_int(&mut env[*dst as usize], v);
                        }
                        _ => {
                            let back = self.load_refund(code, func, ip, *pc);
                            return self.deopt(ctx, code, func, env, back, *pc, observer, depth);
                        }
                    }
                }
                Op::ElemI { dst, d, arr, idx, pc } => {
                    let r = t!(env[*arr as usize].as_ref("array load"));
                    match t!(ctx.heap.int_elem(r, ints[at(*idx)])) {
                        Some(v) => {
                            ints[at(*d)] = v;
                            put_int(&mut env[*dst as usize], v);
                        }
                        None => {
                            let back = self.load_refund(code, func, ip, *pc);
                            return self.deopt(ctx, code, func, env, back, *pc, observer, depth);
                        }
                    }
                }
                Op::ArrGetI { dst, arr, idx } => {
                    let r = t!(env[*arr as usize].as_ref("array load"));
                    let i = ints[at(*idx)];
                    env[*dst as usize] = match t!(ctx.heap.int_elem(r, i)) {
                        Some(v) => Value::Int(v),
                        None => t!(ctx.heap.array_get(r, i)),
                    };
                }
                Op::ArrSetI { arr, idx, src } => {
                    let r = t!(env[*arr as usize].as_ref("array store"));
                    t!(store_elem(&mut ctx.heap, r, ints[at(*idx)], val(&env, consts, *src)));
                }
                Op::Mov { dst, src } => {
                    env[*dst as usize] = val(&env, consts, *src).clone();
                }
                Op::Un { op, dst, src } => {
                    let v = match (op, val(&env, consts, *src)) {
                        (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                        (UnOp::Neg, Value::Float(x)) => Value::Float(-x),
                        (UnOp::Neg, other) => {
                            break IrError::Type(format!("cannot negate {}", other.kind_name()))
                        }
                        (UnOp::Not, v) => Value::Bool(!v.truthy()),
                    };
                    env[*dst as usize] = v;
                }
                Op::Bin { op, dst, a, b } => {
                    let v = t!(bin_fast(*op, val(&env, consts, *a), val(&env, consts, *b)));
                    env[*dst as usize] = v;
                }
                Op::InstanceOf { dst, obj, class } => {
                    let is = match &env[*obj as usize] {
                        Value::Ref(r) => t!(ctx.heap.class_of(*r)) == Some(*class),
                        _ => false,
                    };
                    env[*dst as usize] = Value::Bool(is);
                }
                Op::Cast { dst, obj, class } => {
                    let v = env[*obj as usize].clone();
                    match &v {
                        Value::Null => {}
                        Value::Ref(r) => {
                            if t!(ctx.heap.class_of(*r)) != Some(*class) {
                                break IrError::Type(format!(
                                    "cannot cast {r} to {}",
                                    self.program.classes.decl(*class).name
                                ));
                            }
                        }
                        other => {
                            break IrError::Type(format!(
                                "cannot cast {} to a class type",
                                other.kind_name()
                            ))
                        }
                    }
                    env[*dst as usize] = v;
                }
                Op::New { dst, class } => {
                    env[*dst as usize] =
                        Value::Ref(ctx.heap.alloc_object(&self.program.classes, *class));
                }
                Op::NewArr { dst, elem, len } => {
                    let len = t!(val(&env, consts, *len).as_int("array length"));
                    if len < 0 {
                        break IrError::Type(format!("negative array length {len}"));
                    }
                    ctx.work += ctx.costs.alloc + ctx.costs.alloc_per_elem * len as u64;
                    env[*dst as usize] = Value::Ref(ctx.heap.alloc_array(*elem, len as usize));
                }
                Op::FieldGet { dst, obj, field } => {
                    let r = t!(env[*obj as usize].as_ref("field load"));
                    env[*dst as usize] = t!(ctx.heap.field(r, *field));
                }
                Op::FieldSet { obj, field, src } => {
                    let v = val(&env, consts, *src).clone();
                    let r = t!(env[*obj as usize].as_ref("field store"));
                    t!(ctx.heap.set_field(r, *field, v));
                }
                Op::ArrGet { dst, arr, idx } => {
                    let r = t!(env[*arr as usize].as_ref("array load"));
                    let i = t!(val(&env, consts, *idx).as_int("array index"));
                    env[*dst as usize] = match t!(ctx.heap.int_elem(r, i)) {
                        Some(v) => Value::Int(v),
                        None => t!(ctx.heap.array_get(r, i)),
                    };
                }
                Op::ArrSet { arr, idx, src } => {
                    let r = t!(env[*arr as usize].as_ref("array store"));
                    let i = t!(val(&env, consts, *idx).as_int("array index"));
                    t!(store_elem(&mut ctx.heap, r, i, val(&env, consts, *src)));
                }
                Op::ArrLen { dst, arr } => {
                    let r = t!(env[*arr as usize].as_ref("array length"));
                    env[*dst as usize] = Value::Int(t!(ctx.heap.array_len(r)) as i64);
                }
                Op::GlobalGet { dst, global } => {
                    env[*dst as usize] = ctx.globals[global.index()].clone();
                }
                Op::GlobalSet { global, src } => {
                    ctx.globals[global.index()] = val(&env, consts, *src).clone();
                }
                Op::Call { site } => {
                    t!(self.call(ctx, &mut env, consts, &code.calls[*site as usize], depth));
                }
                Op::Slow { pc } => {
                    let Instr::Assign { place, rvalue } = &func.instrs[*pc as usize] else {
                        unreachable!("Slow lowers only assignments")
                    };
                    let v = t!(self.interp.rvalue(ctx, func, &env, rvalue, depth));
                    t!(self.interp.store(ctx, &mut env, place, v));
                }
            }
            ip += 1;
        };
        // The block head charged the ops after `ip`, which never ran.
        let rest = code.refund[ip];
        ctx.steps -= u64::from(rest.steps);
        ctx.work -= rest.work(&ctx.costs);
        Err(trap)
    }
}

/// `arr[i] = v` with the integer fast lane: an `Int` or `Bool` stored into
/// an int or byte array skips the `Value` round trip (and the write
/// barrier, which only integers never trip).
#[inline]
fn store_elem(
    heap: &mut crate::heap::Heap,
    r: crate::value::ObjRef,
    i: i64,
    v: &Value,
) -> Result<(), IrError> {
    let int = match v {
        Value::Int(x) => Some(*x),
        Value::Bool(b) => Some(i64::from(*b)),
        _ => None,
    };
    if let Some(x) = int {
        if heap.set_int_elem(r, i, x)? {
            return Ok(());
        }
    }
    heap.array_set(r, i, v.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn opts_edges(edges: &[(Pc, Pc)]) -> CompileOptions {
        CompileOptions {
            observed: Observed::Edges(edges.iter().copied().collect()),
            fuse: true,
            fuse_at: None,
        }
    }

    const LOOP_SRC: &str = "fn sum_to(n) {\n    i = 0\n    total = 0\nhead:\n    if i > n goto done\n    total = total + i\n    i = i + 1\n    goto head\ndone:\n    return total\n}\n";

    fn compile(src: &str, name: &str, opts: &CompileOptions) -> CompiledFunction {
        let p = parse_program(src).unwrap();
        compile_function(&p, p.function(name).unwrap(), opts)
    }

    #[test]
    fn ops_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 16);
    }

    #[test]
    fn negative_zero_keeps_its_own_pool_entry() {
        // `0.0 == -0.0`, so a pool deduplicated by `==` would hand `b` the
        // positive zero.
        let src = "fn f() {\n    a = 0.0\n    b = -0.0\n    return b\n}\n";
        let p = Arc::new(parse_program(src).unwrap());
        assert_eq!(compile(src, "f", &CompileOptions::default()).consts.len(), 2);
        let engine =
            crate::engine::CompiledEngine::compile(Arc::clone(&p), &CompileHints::default());
        let mut ctx = ExecCtx::new(&p);
        match crate::engine::Engine::run(&engine, &mut ctx, "f", vec![]).unwrap() {
            Some(Value::Float(b)) => assert!(b == 0.0 && b.is_sign_negative(), "{b}"),
            other => panic!("expected a float, got {other:?}"),
        }
    }

    #[test]
    fn unobserved_loop_runs_on_typed_ops() {
        let code = compile(LOOP_SRC, "sum_to", &opts_edges(&[]));
        // `n` is speculated (it is compared), `i` and `total` are proven.
        assert_eq!(code.typed_regs, 3);
        assert!(code.ops.iter().any(|o| matches!(o, Op::LoadI { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::BrCmpI { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::AddI { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::AddIK { .. })));
        assert!(!code.ops.iter().any(|o| matches!(o, Op::Bin { .. } | Op::Br { .. })));
        // Blocks: [i = 0, total = 0], [head], [body + goto], [done].
        let steps: Vec<u32> = code.blocks.iter().map(|b| b.charge.steps).collect();
        assert_eq!(steps, vec![2, 1, 3, 1]);
        let loop_body = code.blocks[2].charge;
        assert_eq!((loop_body.simple, loop_body.branch), (2, 1));
    }

    #[test]
    fn plain_compile_types_only_what_it_proves() {
        let p = parse_program(LOOP_SRC).unwrap();
        let f = p.function("sum_to").unwrap();
        let code = compile_body(&p, f, opts_edges(&[]).observed.flags(f), false);
        // `n` stays generic, so the loop test is a guarded generic branch.
        assert!(code.ops.iter().any(|o| matches!(o, Op::Br { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::AddI { .. })));
    }

    #[test]
    fn bool_is_not_int() {
        let src = "fn f(x) {\n    b = 1 < 2\n    c = b + 1\n    if b == 0 goto z\n    return c\nz:\n    return 0\n}\n";
        let code = compile(src, "f", &opts_edges(&[]));
        assert!(
            code.ops.iter().any(|o| matches!(o, Op::CmpIK { .. } | Op::CmpI { .. }))
                || code.ops.iter().any(|o| matches!(o, Op::Bin { op: BinOp::Lt, .. }))
        );
        assert!(code.ops.iter().any(|o| matches!(o, Op::Bin { op: BinOp::Add, .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::Br { op: BinOp::Eq, .. })));
        assert!(!code.ops.iter().any(|o| matches!(o, Op::AddIK { .. } | Op::BrCmpIK { .. })));
    }

    #[test]
    fn join_of_int_and_other_kinds_is_generic() {
        let src = "fn f(x) {\n    if x == 0 goto a\n    y = 1\n    goto j\na:\n    y = 1.5\nj:\n    z = y + 1\n    return z\n}\n";
        let code = compile(src, "f", &opts_edges(&[]));
        assert!(code.ops.iter().any(|o| matches!(o, Op::Bin { op: BinOp::Add, .. })));
    }

    #[test]
    fn observed_all_is_one_resumable_block_per_instruction() {
        let p = parse_program(LOOP_SRC).unwrap();
        let f = p.function("sum_to").unwrap();
        let code = compile_function(&p, f, &CompileOptions::default());
        assert_eq!(code.blocks.len(), f.instrs.len());
        assert!(code.blocks.iter().all(|b| b.charge.steps == 1 && b.resumable));
        // Every instruction is a resume point, so each block reloads the
        // live `Int` registers it enters with.
        assert!(code.ops.iter().any(|o| matches!(o, Op::AddI { .. })));
        assert!(code.ops.iter().any(|o| matches!(o, Op::LoadI { .. })));
        // Every existing fall-through edge gets an Observe op.
        let observes = code.ops.iter().filter(|o| matches!(o, Op::Observe { .. })).count();
        let fall_through = f
            .instrs
            .iter()
            .enumerate()
            .filter(|(pc, i)| can_fall_through(i) && pc + 1 < f.instrs.len())
            .count();
        assert_eq!(observes, fall_through);
        // Every taken edge goes through a trampoline.
        assert!(code.ops.iter().any(|o| matches!(o, Op::ObserveJmp { .. })));
    }

    #[test]
    fn watched_edge_ends_a_block_and_is_observed() {
        // Watch the edge between `total = total + i` (3) and `i = i + 1`
        // (4): instruction 4 heads a block, and the edge is observed.
        let code = compile(LOOP_SRC, "sum_to", &opts_edges(&[(3, 4)]));
        assert_ne!(code.pc_map[4], NO_ENTRY);
        assert!(matches!(code.ops[code.pc_map[4] as usize], Op::Enter { .. }));
        assert!(code.ops.contains(&Op::Observe { from: 3, to: 4 }));
        // A watched target enters untyped, so it is a resume point.
        assert!(code.resume_op(4).is_some());
        assert!(code.resume_op(5).is_none(), "inside a block");
    }

    #[test]
    fn calls_and_array_allocations_end_blocks() {
        let src = "fn g(x) {\n    return x\n}\n\nfn f(n) {\n    a = 1\n    b = call g(a)\n    c = 2\n    d = new int[c]\n    e = 3\n    return e\n}\n";
        let code = compile(src, "f", &opts_edges(&[]));
        let heads: Vec<u32> = code.blocks.iter().map(|b| b.pc).collect();
        assert_eq!(heads, vec![0, 2, 4]);
        // The call and the allocation charge their own work.
        assert_eq!(code.blocks[0].charge, Charge { steps: 2, simple: 1, ..Charge::default() });
    }

    #[test]
    fn refunds_cover_the_ops_after_each_op() {
        let src = "fn f(x) {\n    a = x + 1\n    b = a * 2\n    c = b - 3\n    return c\n}\n";
        let code = compile(src, "f", &opts_edges(&[]));
        assert_eq!(code.blocks.len(), 1);
        let rest: Vec<u32> = code
            .ops
            .iter()
            .zip(&code.refund)
            .filter(|(o, _)| !matches!(o, Op::Enter { .. } | Op::LoadI { .. }))
            .map(|(_, r)| r.steps)
            .collect();
        assert_eq!(rest, vec![3, 2, 1, 0]);
    }

    #[test]
    fn constants_are_interned_once() {
        let src = "fn f(x) {\n    a = x + 7\n    b = a * 7\n    c = b - 7\n    return c\n}\n";
        let code = compile(src, "f", &CompileOptions::default());
        assert_eq!(code.consts.iter().filter(|v| **v == Value::Int(7)).count(), 1);
    }

    #[test]
    fn branch_targets_are_patched_to_block_heads() {
        for opts in [opts_edges(&[]), opts_edges(&[(2, 7)]), CompileOptions::default()] {
            let code = compile(LOOP_SRC, "sum_to", &opts);
            for op in &code.ops {
                let t = match op {
                    Op::Jmp { t }
                    | Op::Br { t, .. }
                    | Op::BrCmpI { t, .. }
                    | Op::BrCmpIK { t, .. }
                    | Op::ObserveJmp { t, .. } => *t as usize,
                    _ => continue,
                };
                assert!(matches!(code.ops[t], Op::Enter { .. } | Op::ObserveJmp { .. }), "{op:?}");
            }
        }
    }

    #[test]
    fn cmp_masks_match_the_operators() {
        for op in [BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne, BinOp::Gt, BinOp::Ge] {
            let cmp = Cmp::of(op).unwrap();
            for (x, y) in [(1, 2), (2, 2), (3, 2), (i64::MIN, i64::MAX)] {
                let want = binop(op, Value::Int(x), Value::Int(y)).unwrap();
                assert_eq!(Value::Bool(cmp.holds(x, y)), want, "{x} {op} {y}");
            }
        }
        assert!(Cmp::of(BinOp::Add).is_none());
    }
}
