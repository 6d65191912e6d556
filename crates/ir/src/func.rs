//! Functions and whole programs.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::instr::{GlobalId, Instr, Operand, Pc, Var};
use crate::types::ClassTable;
use crate::value::Value;
use crate::IrError;

/// A message-handling method (or helper) in IR form.
///
/// Instructions are stored in a flat vector; jump targets are instruction
/// indices (resolved from labels at construction time). Instruction indices
/// double as Unit Graph node ids in `mpart-analysis`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name, unique within the program.
    pub name: String,
    /// Number of parameters; parameters occupy variable slots `0..params`.
    pub params: usize,
    /// Total number of local variable slots (including parameters).
    pub locals: usize,
    /// The instruction sequence.
    pub instrs: Vec<Instr>,
    /// Debug names for variable slots, parallel to `0..locals`.
    pub var_names: Vec<String>,
}

/// Most local slots a function may have: the bytecode engine addresses
/// registers with 16 bits.
pub const MAX_LOCALS: usize = 1 << 16;

/// Most distinct constants a body may use: the bytecode engine indexes
/// its constant pool with 16 bits.
pub const MAX_CONSTS: usize = 1 << 16;

/// Most instructions a body may have: the bytecode engine's op indices
/// are 32-bit, and a body lowers to about two ops per instruction.
pub const MAX_INSTRS: usize = (u32::MAX / 2 - 1) as usize;

impl Function {
    /// Validates internal consistency: jump targets in range, variable
    /// indices within `locals`, at least one instruction, and sizes within
    /// [`MAX_INSTRS`], [`MAX_LOCALS`] and [`MAX_CONSTS`]. A valid body
    /// always compiles to bytecode.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] describing the first violation.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.instrs.is_empty() {
            return Err(IrError::Invalid(format!("function `{}` is empty", self.name)));
        }
        if self.params > self.locals {
            return Err(IrError::Invalid(format!(
                "function `{}` has {} params but only {} locals",
                self.name, self.params, self.locals
            )));
        }
        let mut consts = HashSet::new();
        for (pc, instr) in self.instrs.iter().enumerate() {
            if let Instr::If { target, .. } | Instr::Goto { target } = instr {
                if *target >= self.instrs.len() {
                    return Err(IrError::Invalid(format!(
                        "function `{}` pc {pc}: jump target {target} out of range",
                        self.name
                    )));
                }
            }
            let mut out_of_range = None;
            instr.each_operand(|o| match o {
                Operand::Var(v) if v.index() >= self.locals => {
                    out_of_range = out_of_range.or(Some(*v))
                }
                Operand::Var(_) => {}
                Operand::Const(c) => {
                    consts.insert(c.pool_key());
                }
            });
            if let Some(v) = out_of_range {
                return Err(IrError::Invalid(format!(
                    "function `{}` pc {pc}: variable {v} out of range",
                    self.name
                )));
            }
            if let Some(v) = instr.def() {
                if v.index() >= self.locals {
                    return Err(IrError::Invalid(format!(
                        "function `{}` pc {pc}: defined variable {v} out of range",
                        self.name
                    )));
                }
            }
        }
        within_limits(&self.name, self.instrs.len(), self.locals, consts.len())
    }

    /// Control-flow successors of the instruction at `pc`.
    ///
    /// The final instruction falls through to "off the end" only if it is
    /// not a return/goto; such functions are rejected by the interpreter at
    /// runtime, so successors simply omits out-of-range fallthrough.
    pub fn successors(&self, pc: Pc) -> Vec<Pc> {
        match &self.instrs[pc] {
            Instr::Goto { target } => vec![*target],
            Instr::Return { .. } => vec![],
            Instr::If { target, .. } => {
                let mut s = Vec::with_capacity(2);
                if pc + 1 < self.instrs.len() {
                    s.push(pc + 1);
                }
                if !s.contains(target) {
                    s.push(*target);
                } else {
                    // Degenerate `if` whose target is the fallthrough still
                    // has a single successor.
                }
                s
            }
            _ => {
                if pc + 1 < self.instrs.len() {
                    vec![pc + 1]
                } else {
                    vec![]
                }
            }
        }
    }

    /// Debug name for a variable slot.
    pub fn var_name(&self, v: Var) -> &str {
        self.var_names.get(v.index()).map(String::as_str).unwrap_or("?")
    }

    /// Resolves a variable by its debug name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names.iter().position(|n| n == name).map(|i| Var(i as u32))
    }
}

/// Checks a body's sizes against [`MAX_INSTRS`], [`MAX_LOCALS`] and
/// [`MAX_CONSTS`].
fn within_limits(name: &str, instrs: usize, locals: usize, consts: usize) -> Result<(), IrError> {
    for (what, n, max) in [
        ("instructions", instrs, MAX_INSTRS),
        ("locals", locals, MAX_LOCALS),
        ("distinct constants", consts, MAX_CONSTS),
    ] {
        if n > max {
            return Err(IrError::Invalid(format!(
                "function `{name}` has {n} {what}, over the limit of {max}"
            )));
        }
    }
    Ok(())
}

/// Declaration of a global (mutable-outside) variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    /// Global name, unique within the program.
    pub name: String,
    /// Initial value installed into fresh [`ExecCtx`](crate::interp::ExecCtx)s.
    pub init: Value,
}

/// A complete IR program: classes, globals, and functions.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Declared classes.
    pub classes: ClassTable,
    functions: Vec<Function>,
    fn_by_name: HashMap<String, usize>,
    globals: Vec<GlobalDecl>,
    global_by_name: HashMap<String, GlobalId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] on duplicate names or malformed bodies.
    pub fn add_function(&mut self, f: Function) -> Result<(), IrError> {
        f.validate()?;
        if self.fn_by_name.contains_key(&f.name) {
            return Err(IrError::Invalid(format!("duplicate function `{}`", f.name)));
        }
        self.fn_by_name.insert(f.name.clone(), self.functions.len());
        self.functions.push(f);
        Ok(())
    }

    /// Declares a global variable.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] on duplicate names.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        init: Value,
    ) -> Result<GlobalId, IrError> {
        let name = name.into();
        if self.global_by_name.contains_key(&name) {
            return Err(IrError::Invalid(format!("duplicate global `{name}`")));
        }
        let id = GlobalId(self.globals.len() as u32);
        self.global_by_name.insert(name.clone(), id);
        self.globals.push(GlobalDecl { name, init });
        Ok(id)
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.fn_by_name.get(name).map(|&i| &self.functions[i])
    }

    /// Looks up a function by name, erroring with context if missing.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Unresolved`].
    pub fn function_or_err(&self, name: &str) -> Result<&Function, IrError> {
        self.function(name).ok_or_else(|| IrError::Unresolved(format!("function `{name}`")))
    }

    /// Iterates over all functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter()
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<GlobalId> {
        self.global_by_name.get(name).copied()
    }

    /// Declared globals in declaration order.
    pub fn globals(&self) -> &[GlobalDecl] {
        &self.globals
    }

    /// Name of a global.
    pub fn global_name(&self, id: GlobalId) -> &str {
        &self.globals[id.index()].name
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::program_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BinOp;
    use crate::instr::{CondExpr, Const, Operand, Place, Rvalue};

    fn ret() -> Instr {
        Instr::Return { value: None }
    }

    fn trivial(name: &str) -> Function {
        Function { name: name.into(), params: 0, locals: 0, instrs: vec![ret()], var_names: vec![] }
    }

    #[test]
    fn add_and_lookup_functions() {
        let mut p = Program::new();
        p.add_function(trivial("a")).unwrap();
        assert!(p.function("a").is_some());
        assert!(p.function("b").is_none());
        assert!(p.function_or_err("b").is_err());
    }

    #[test]
    fn duplicate_function_rejected() {
        let mut p = Program::new();
        p.add_function(trivial("a")).unwrap();
        assert!(p.add_function(trivial("a")).is_err());
    }

    #[test]
    fn empty_function_rejected() {
        let f =
            Function { name: "e".into(), params: 0, locals: 0, instrs: vec![], var_names: vec![] };
        assert!(f.validate().is_err());
    }

    #[test]
    fn out_of_range_jump_rejected() {
        let f = Function {
            name: "j".into(),
            params: 0,
            locals: 0,
            instrs: vec![Instr::Goto { target: 5 }, ret()],
            var_names: vec![],
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn out_of_range_var_rejected() {
        let f = Function {
            name: "v".into(),
            params: 0,
            locals: 1,
            instrs: vec![
                Instr::Assign { place: Place::Var(Var(4)), rvalue: Rvalue::Use(Operand::int(0)) },
                ret(),
            ],
            var_names: vec!["a".into()],
        };
        assert!(f.validate().is_err());
    }

    fn store(c: Const) -> Instr {
        Instr::Assign { place: Place::Var(Var(0)), rvalue: Rvalue::Use(Operand::Const(c)) }
    }

    /// A body storing `n` distinct float constants to `v0`, then
    /// returning its last slot, with `locals` slots.
    fn with_consts(n: usize, locals: usize) -> Function {
        let mut instrs: Vec<Instr> = (0..n).map(|i| store(Const::Float(i as f64))).collect();
        instrs.push(Instr::Return { value: Some(Operand::Var(Var(locals as u32 - 1))) });
        Function { name: "big".into(), params: 0, locals, instrs, var_names: vec![] }
    }

    #[test]
    fn validate_accepts_each_limit_and_rejects_one_past_it() {
        with_consts(1, MAX_LOCALS).validate().unwrap();
        let err = with_consts(1, MAX_LOCALS + 1).validate().unwrap_err();
        assert!(err.to_string().contains("65537 locals"), "{err}");

        with_consts(MAX_CONSTS, 1).validate().unwrap();
        let err = with_consts(MAX_CONSTS + 1, 1).validate().unwrap_err();
        assert!(err.to_string().contains("65537 distinct constants"), "{err}");
        // A repeat adds no pool entry; `-0.0` beside `0.0` adds one.
        let mut f = with_consts(MAX_CONSTS, 1);
        f.instrs.insert(0, store(Const::Float(0.0)));
        f.validate().unwrap();
        f.instrs[0] = store(Const::Float(-0.0));
        assert!(f.validate().is_err());

        // A body at the instruction limit does not fit in a test's memory,
        // so the size check runs on its own.
        within_limits("f", MAX_INSTRS, 1, 0).unwrap();
        assert!(within_limits("f", MAX_INSTRS + 1, 1, 0).is_err());
    }

    #[test]
    fn successors_of_branches() {
        let f = Function {
            name: "s".into(),
            params: 0,
            locals: 1,
            instrs: vec![
                Instr::If {
                    cond: CondExpr {
                        lhs: Operand::Var(Var(0)),
                        op: BinOp::Eq,
                        rhs: Operand::int(0),
                    },
                    target: 2,
                },
                Instr::Goto { target: 0 },
                ret(),
            ],
            var_names: vec!["a".into()],
        };
        f.validate().unwrap();
        assert_eq!(f.successors(0), vec![1, 2]);
        assert_eq!(f.successors(1), vec![0]);
        assert_eq!(f.successors(2), Vec::<usize>::new());
    }

    #[test]
    fn globals_declare_and_resolve() {
        let mut p = Program::new();
        let g = p.add_global("counter", Value::Int(0)).unwrap();
        assert_eq!(p.global("counter"), Some(g));
        assert_eq!(p.global_name(g), "counter");
        assert!(p.add_global("counter", Value::Int(1)).is_err());
    }
}
