//! # mpart — the Method Partitioning runtime
//!
//! This crate is the paper's primary contribution: it turns the static
//! analysis of `mpart-analysis` and a cost model from `mpart-cost` into a
//! *running* partitioned handler.
//!
//! * [`plan`] — [`plan::PartitionPlan`]: the per-PSE split
//!   and profiling flags. "Switching plans is as efficient as changing
//!   flag values" — flags are atomics shared with the modulator.
//! * [`continuation`] — the Remote Continuation message: PSE id plus the
//!   marshalled live variables (`INTER` set) of the split edge.
//! * [`modulator`] — the sender-side half: runs the handler under an edge
//!   observer, stops at the first active PSE, packs the continuation, and
//!   gathers profiling samples.
//! * [`demodulator`] — the receiver-side half: restores live variables and
//!   resumes execution at the split edge's in-node (or runs the whole
//!   handler for an entry-edge split).
//! * [`profile`] — the Runtime Profiling Unit: per-PSE statistics with
//!   EWMA smoothing, conditional profiling flags, and rate-/diff-triggered
//!   feedback.
//! * [`reconfig`] — the Runtime Reconfiguration Unit: converts profiled
//!   statistics into per-PSE weights and re-selects the optimal partition
//!   with a max-flow/min-cut over the Unit Graph.
//! * [`codegen`] — renders the instrumented modulator/demodulator "classes"
//!   as text and accounts their size overhead (§5.3).
//! * [`obs`] — per-handler observability: pre-registered metric handles
//!   and trace events over the shared `mpart-obs` hub.
//! * [`health`] — link health with hysteresis and the degradation ladder:
//!   fall back to the trivial entry cut while the link is down, re-promote
//!   the optimized plan once it recovers.
//! * [`partitioned`] — [`partitioned::PartitionedHandler`],
//!   the deployment-time facade tying everything together.
//! * [`session`] — [`session::SessionManager`]: N concurrent sessions
//!   sharded over a fixed worker pool, sharing static analyses through the
//!   `mpart-analysis` cache while keeping plans and epochs per-session
//!   (see `ARCHITECTURE.md` §"Throughput layer").
//! * [`subscriber`] — [`subscriber::Subscriber`]: the one receiver-side
//!   step every transport runs per envelope — demodulate in isolation,
//!   feed the Reconfiguration Unit, gate the re-selection — leaving the
//!   transport to decide only *when* a validated proposal installs.
//! * [`failure`] — the session failure domain: `catch_unwind` panic
//!   isolation, per-envelope retry budgets, and the bounded dead-letter
//!   ring for poison-envelope quarantine.
//! * [`journal`] — append-only session journal (plan epochs, model, ack
//!   watermark, profiling flags; no payloads) for crash-safe recovery
//!   through the analysis cache with zero re-analysis.
//! * [`router`] — [`router::Router`]: multi-host session routing; hashes
//!   sessions onto nodes, tracks node health (heartbeat misses +
//!   error-rate EWMA with hysteresis), and on node death drains the
//!   shared journal to migrate sessions onto survivors — kill-a-node
//!   recovery with zero re-analysis and preserved ack watermarks.
//!
//! ## End-to-end example
//!
//! ```
//! use mpart::partitioned::PartitionedHandler;
//! use mpart_cost::DataSizeModel;
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::interp::ExecCtx;
//! use mpart_ir::Value;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(parse_program(r#"
//!     fn handle(x) {
//!         y = x * 2
//!         native deliver(y)
//!         return
//!     }
//! "#)?);
//! let handler = PartitionedHandler::analyze(
//!     program.clone(),
//!     "handle",
//!     Arc::new(DataSizeModel::new()),
//! )?;
//! // Sender side: run the modulator, which stops at the active split
//! // edge and emits a remote continuation.
//! let modulator = handler.modulator();
//! let mut sender_ctx = ExecCtx::new(&program);
//! let run = modulator.handle(&mut sender_ctx, vec![Value::Int(21)])?;
//! // Receiver side: the demodulator restores the live variables and
//! // finishes the handler, reaching the native stop node.
//! let demodulator = handler.demodulator();
//! let mut recv_ctx = ExecCtx::new(&program);
//! recv_ctx.builtins.register_native("deliver", 1, |_, _| Ok(Value::Null));
//! demodulator.handle(&mut recv_ctx, &run.message)?;
//! assert_eq!(recv_ctx.trace.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod codegen;
pub mod continuation;
pub mod demodulator;
pub mod failure;
pub mod health;
pub mod journal;
pub mod modulator;
pub mod obs;
pub mod partitioned;
pub mod plan;
pub mod profile;
pub mod reconfig;
pub mod router;
pub mod session;
pub mod subscriber;

/// Index of a Potential Split Edge within a handler's analysis results.
pub type PseId = usize;

pub use continuation::ContinuationMessage;
pub use partitioned::PartitionedHandler;
pub use plan::PartitionPlan;
