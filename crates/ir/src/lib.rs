//! # mpart-ir — a Jimple-like three-address IR for Method Partitioning
//!
//! Method Partitioning (ICDCS 2003) analyzes and splits *message handling
//! methods* expressed in Jimple, the three-address intermediate
//! representation used by the Soot framework. Rust programs are statically
//! compiled, so runtime re-partitioning of native methods is impossible;
//! this crate instead provides a small, fully interpreted IR in which
//! handlers are written. The IR deliberately mirrors Jimple:
//!
//! * one instruction per unit-graph node — assignments,
//!   conditional/unconditional jumps, returns, and opaque method
//!   invocations;
//! * a typed object heap with classes, primitive arrays, and reference
//!   arrays;
//! * `native` invocations that anchor execution to a host (they become
//!   *stop nodes* during static analysis);
//! * a dynamic environment of numbered local variables, amenable to
//!   classic dataflow analyses (liveness, reaching definitions).
//!
//! The crate contains:
//!
//! * [`value`] / [`heap`] — runtime values and the object heap;
//! * [`types`] — class declarations and the class table;
//! * [`instr`] — instructions, operands, r-values;
//! * [`func`] — functions and whole programs;
//! * [`builder`] — a fluent API for constructing functions in Rust code;
//! * [`parse`] — a text parser for a Jimple-ish concrete syntax;
//! * [`pretty`] — the inverse pretty-printer;
//! * [`interp`] — the interpreter, with work-unit accounting, a native
//!   builtin registry, and the edge-observation hook used to implement
//!   remote continuation;
//! * [`compile`] — the register-bytecode compile pass and dispatch-loop
//!   VM: typed integer registers, per-block metering, pre-resolved
//!   jumps, interned constants;
//! * [`engine`] — the [`Engine`](engine::Engine) trait putting the
//!   interpreter (reference semantics) and the bytecode VM (fast path)
//!   behind one execution contract, plus the `interp`/`compiled`/`auto`
//!   selector;
//! * [`marshal`] — custom deep serialization of heap subgraphs (continuation
//!   messages) and the object sizing machinery evaluated in Table 1 of the
//!   paper;
//! * [`stdlib`] — a reusable library of pure builtins (math, arrays,
//!   strings) for handler programs;
//! * [`inline`] — interprocedural Unit Graph expansion (§7 future work):
//!   splice IR callees into the handler so split edges appear inside them.
//!
//! ## Example
//!
//! ```
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::interp::{Interp, ExecCtx};
//! use mpart_ir::value::Value;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(r#"
//!     fn double(x) {
//!         y = x * 2
//!         return y
//!     }
//! "#)?;
//! let mut ctx = ExecCtx::new(&program);
//! let result = Interp::new(&program).run(&mut ctx, "double", vec![Value::Int(21)])?;
//! assert_eq!(result, Some(Value::Int(42)));
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod compile;
pub mod engine;
pub mod error;
pub mod func;
pub mod heap;
pub mod inline;
pub mod instr;
pub mod interp;
pub mod marshal;
pub mod parse;
pub mod pretty;
pub mod stdlib;
pub mod types;
pub mod value;

pub use error::IrError;
pub use func::{Function, Program};
pub use instr::{Instr, Var};
pub use value::Value;
