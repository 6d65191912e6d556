//! Instructions, operands, and r-values of the IR.
//!
//! Each [`Instr`] corresponds to exactly one node in the Unit Graph, the
//! per-instruction control-flow graph on which the paper's `ConvexCut`
//! algorithm operates.

use std::fmt;
use std::sync::Arc;

use crate::types::{ClassId, ElemType};
use crate::value::Value;

/// A numbered local variable slot.
///
/// Variables are plain indices into a function's environment; the function
/// records human-readable names for diagnostics and pretty-printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Raw slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a global variable in a [`Program`](crate::Program).
///
/// Globals model state that is *mutable outside the handler*; instructions
/// touching them are stop nodes in the analysis (they must execute on the
/// receiver, which owns the state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub(crate) u32);

impl GlobalId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// The null reference.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(Arc<str>),
}

impl Const {
    /// Materializes the constant as a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            Const::Null => Value::Null,
            Const::Bool(b) => Value::Bool(*b),
            Const::Int(i) => Value::Int(*i),
            Const::Float(x) => Value::Float(*x),
            Const::Str(s) => Value::Str(s.clone()),
        }
    }

    /// The constant's identity in a constant pool: equal keys materialize
    /// to the same value bit for bit. Unlike `==`, it tells `0.0` from
    /// `-0.0` and matches a NaN with itself.
    pub(crate) fn pool_key(&self) -> PoolKey {
        match self {
            Const::Null => PoolKey::Null,
            Const::Bool(b) => PoolKey::Bool(*b),
            Const::Int(i) => PoolKey::Int(*i),
            Const::Float(x) => PoolKey::Float(x.to_bits()),
            Const::Str(s) => PoolKey::Str(s.clone()),
        }
    }
}

/// See [`Const::pool_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PoolKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(Arc<str>),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Null => write!(f, "null"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Int(i) => write!(f, "{i}"),
            Const::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Const::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// An operand: a variable or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Read a local variable.
    Var(Var),
    /// A literal constant.
    Const(Const),
}

impl Operand {
    /// The variable read by this operand, if any.
    pub fn var(&self) -> Option<Var> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    /// Convenience integer-constant operand.
    pub fn int(i: i64) -> Self {
        Operand::Const(Const::Int(i))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Operand {
    fn from(v: Var) -> Self {
        Operand::Var(v)
    }
}

impl From<Const> for Operand {
    fn from(c: Const) -> Self {
        Operand::Const(c)
    }
}

/// Binary arithmetic / comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (int, float, or string concatenation).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division for ints).
    Div,
    /// Remainder.
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Logical/bitwise and.
    And,
    /// Logical/bitwise or.
    Or,
}

impl BinOp {
    /// Surface syntax for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&",
            BinOp::Or => "|",
        }
    }

    /// Whether the operator yields a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Rvalue {
    /// Copy an operand.
    Use(Operand),
    /// Unary operation.
    Unary(UnOp, Operand),
    /// Binary operation.
    Binary(BinOp, Operand, Operand),
    /// `a instanceof C` — true iff `a` refers to an instance of class `C`.
    InstanceOf(Var, ClassId),
    /// `(C) a` — checked cast; errors at runtime on class mismatch.
    Cast(ClassId, Var),
    /// Allocate a new instance of a class.
    New(ClassId),
    /// Allocate a new zeroed array of `elem` with dynamic length.
    NewArray(ElemType, Operand),
    /// Read an object field: `a.f`.
    FieldGet(Var, crate::types::FieldId),
    /// Read an array element: `a[i]`.
    ArrayGet(Var, Operand),
    /// Array length: `len a`.
    ArrayLen(Var),
    /// Invoke another IR function or a *pure* builtin.
    ///
    /// Per the paper (§7), invocations inside the handler are treated as
    /// *opaque instructions* — the analysis does not expand the callee's
    /// unit graph. Pure builtins must not touch receiver-anchored state.
    Invoke {
        /// Callee name (IR function or registered pure builtin).
        callee: String,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Invoke a *native* builtin.
    ///
    /// Native builtins model platform methods such as `displayImage`; any
    /// instruction containing one is a stop node.
    InvokeNative {
        /// Registered native builtin name.
        callee: String,
        /// Argument operands.
        args: Vec<Operand>,
    },
    /// Read a global (mutable-outside) variable; makes the node a stop node.
    GlobalGet(GlobalId),
}

impl Rvalue {
    /// Variables read by this r-value, in evaluation order.
    pub fn uses(&self, out: &mut Vec<Var>) {
        self.each_use(|v| out.push(v));
    }

    /// Calls `f` on each variable this r-value reads, in evaluation order.
    pub fn each_use(&self, mut f: impl FnMut(Var)) {
        self.each_operand(|o| o.var().into_iter().for_each(&mut f));
    }

    /// Calls `f` on each operand this r-value reads, in evaluation order;
    /// an object or array base is passed as an [`Operand::Var`].
    pub(crate) fn each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Rvalue::Use(a) | Rvalue::Unary(_, a) | Rvalue::NewArray(_, a) => f(a),
            Rvalue::Binary(_, a, b) => {
                f(a);
                f(b);
            }
            Rvalue::InstanceOf(v, _)
            | Rvalue::Cast(_, v)
            | Rvalue::ArrayLen(v)
            | Rvalue::FieldGet(v, _) => f(&Operand::Var(*v)),
            Rvalue::New(_) | Rvalue::GlobalGet(_) => {}
            Rvalue::ArrayGet(v, i) => {
                f(&Operand::Var(*v));
                f(i);
            }
            Rvalue::Invoke { args, .. } | Rvalue::InvokeNative { args, .. } => {
                args.iter().for_each(f)
            }
        }
    }

    /// Whether evaluating this r-value touches receiver-anchored state
    /// (native builtins or globals).
    pub fn is_anchored(&self) -> bool {
        matches!(self, Rvalue::InvokeNative { .. } | Rvalue::GlobalGet(_))
    }
}

/// The destination of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    /// A local variable.
    Var(Var),
    /// An object field: `a.f = ...`.
    Field(Var, crate::types::FieldId),
    /// An array element: `a[i] = ...`.
    ArrayElem(Var, Operand),
    /// A global variable; makes the node a stop node.
    Global(GlobalId),
}

impl Place {
    /// The variable *defined* by this place (only `Place::Var` defines one;
    /// stores through fields/arrays are uses of the base reference).
    pub fn def(&self) -> Option<Var> {
        match self {
            Place::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Variables *read* when storing through this place.
    pub fn uses(&self, out: &mut Vec<Var>) {
        self.each_use(|v| out.push(v));
    }

    /// Calls `f` on each variable *read* when storing through this place.
    pub fn each_use(&self, mut f: impl FnMut(Var)) {
        self.each_operand(|o| o.var().into_iter().for_each(&mut f));
    }

    /// Calls `f` on each operand read when storing through this place;
    /// the base reference is passed as an [`Operand::Var`].
    pub(crate) fn each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Place::Var(_) | Place::Global(_) => {}
            Place::Field(v, _) => f(&Operand::Var(*v)),
            Place::ArrayElem(v, i) => {
                f(&Operand::Var(*v));
                f(i);
            }
        }
    }

    /// Whether the store touches receiver-anchored state.
    pub fn is_anchored(&self) -> bool {
        matches!(self, Place::Global(_))
    }
}

/// A branch condition: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct CondExpr {
    /// Left operand.
    pub lhs: Operand,
    /// Comparison operator (must satisfy [`BinOp::is_comparison`] or be
    /// `And`/`Or` for truthiness combination).
    pub op: BinOp,
    /// Right operand.
    pub rhs: Operand,
}

/// Index of an instruction within its function (a Unit Graph node id).
pub type Pc = usize;

/// A single IR instruction — one Unit Graph node.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `place = rvalue`.
    Assign {
        /// Store destination.
        place: Place,
        /// Computed value.
        rvalue: Rvalue,
    },
    /// `if cond goto target` (fall through otherwise).
    If {
        /// Branch condition.
        cond: CondExpr,
        /// Target instruction index when the condition holds.
        target: Pc,
    },
    /// Unconditional jump.
    Goto {
        /// Target instruction index.
        target: Pc,
    },
    /// Return from the handler, optionally with a value. A stop node.
    Return {
        /// Returned operand, if any.
        value: Option<Operand>,
    },
    /// No operation; used as a label anchor by the builder/parser.
    Nop,
}

impl Instr {
    /// Variables read by this instruction.
    pub fn uses(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.each_use(|v| out.push(v));
        out
    }

    /// Calls `f` on each variable this instruction reads, in the order
    /// [`uses`](Self::uses) lists them.
    pub fn each_use(&self, mut f: impl FnMut(Var)) {
        self.each_operand(|o| o.var().into_iter().for_each(&mut f));
    }

    /// Calls `f` on each operand this instruction reads, variables in the
    /// order [`uses`](Self::uses) lists them.
    pub(crate) fn each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Instr::Assign { place, rvalue } => {
                rvalue.each_operand(&mut f);
                place.each_operand(f);
            }
            Instr::If { cond, .. } => {
                f(&cond.lhs);
                f(&cond.rhs);
            }
            Instr::Return { value } => value.iter().for_each(f),
            Instr::Goto { .. } | Instr::Nop => {}
        }
    }

    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            Instr::Assign { place, .. } => place.def(),
            _ => None,
        }
    }

    /// Whether this instruction must reside on the receiver: returns,
    /// native invocations, and global accesses (the paper's stop-node
    /// criteria).
    pub fn is_stop(&self) -> bool {
        match self {
            Instr::Return { .. } => true,
            Instr::Assign { place, rvalue } => place.is_anchored() || rvalue.is_anchored(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_and_defs_of_assign() {
        let i = Instr::Assign {
            place: Place::Var(Var(0)),
            rvalue: Rvalue::Binary(BinOp::Add, Operand::Var(Var(1)), Operand::Var(Var(2))),
        };
        assert_eq!(i.uses(), vec![Var(1), Var(2)]);
        assert_eq!(i.def(), Some(Var(0)));
    }

    #[test]
    fn store_through_field_uses_base_not_def() {
        let i = Instr::Assign {
            place: Place::Field(Var(3), crate::types::FieldId(0)),
            rvalue: Rvalue::Use(Operand::Var(Var(4))),
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![Var(4), Var(3)]);
    }

    #[test]
    fn array_store_uses_base_and_index() {
        let i = Instr::Assign {
            place: Place::ArrayElem(Var(1), Operand::Var(Var(2))),
            rvalue: Rvalue::Use(Operand::Var(Var(0))),
        };
        let mut uses = i.uses();
        uses.sort();
        assert_eq!(uses, vec![Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn stop_nodes() {
        assert!(Instr::Return { value: None }.is_stop());
        let native = Instr::Assign {
            place: Place::Var(Var(0)),
            rvalue: Rvalue::InvokeNative { callee: "display".into(), args: vec![] },
        };
        assert!(native.is_stop());
        let global = Instr::Assign {
            place: Place::Global(GlobalId(0)),
            rvalue: Rvalue::Use(Operand::int(1)),
        };
        assert!(global.is_stop());
        let pure = Instr::Assign {
            place: Place::Var(Var(0)),
            rvalue: Rvalue::Invoke { callee: "f".into(), args: vec![] },
        };
        assert!(!pure.is_stop());
        assert!(!Instr::Nop.is_stop());
    }

    #[test]
    fn if_uses_both_sides() {
        let i = Instr::If {
            cond: CondExpr { lhs: Operand::Var(Var(5)), op: BinOp::Lt, rhs: Operand::int(3) },
            target: 0,
        };
        assert_eq!(i.uses(), vec![Var(5)]);
    }

    #[test]
    fn const_to_value_round_trip() {
        assert_eq!(Const::Int(4).to_value(), Value::Int(4));
        assert_eq!(Const::Null.to_value(), Value::Null);
        assert_eq!(Const::Bool(true).to_value(), Value::Bool(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Var(3).to_string(), "v3");
        assert_eq!(BinOp::Le.to_string(), "<=");
        assert_eq!(Operand::int(7).to_string(), "7");
        assert_eq!(Const::Float(2.0).to_string(), "2.0");
    }
}
