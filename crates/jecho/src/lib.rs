//! # mpart-jecho — a JECho-like distributed event substrate
//!
//! The paper hosts Method Partitioning inside JECho, a Java distributed
//! event system: receivers *subscribe* handlers to channels, the system
//! analyzes each handler, ships the generated modulator to the event
//! source, and keeps the demodulator with the subscriber. The paper says
//! nothing about which wire carries the continuation, and neither does
//! this crate's core: there is **one link machine and N drivers**.
//!
//! * What the receiver does with a continuation is
//!   [`mpart::subscriber::Subscriber::apply`] — every transport below
//!   calls it and only decides *when* the plan proposal it returns is
//!   installed.
//! * What makes a lossy wire reliable — sequence numbers, the unacked
//!   window, `Frame::Batch` coalescing with a flush deadline,
//!   acknowledgement folding, replay, dedup, retry budgets, quarantine —
//!   is [`link`]: a [`link::SenderHalf`] and a [`link::ReceiverHalf`]
//!   with no clock, socket, thread or sleep inside. Inputs are envelopes,
//!   decoded [`Frame`]s and the caller's time; outputs are frames to
//!   write and what was settled.
//!
//! Drivers of the link machine (they own the I/O and the clock), one per
//! clock:
//!
//! * [`sim::SimSession`] — virtual time through the `mpart-simnet`
//!   pipeline, feedback-delayed plan updates, and, when the link carries
//!   a fault plan, the seeded fault injector between the machine's two
//!   halves; this is what the benchmark harness uses. Figure 1's fan-out
//!   to several subscribers is one session per subscriber: their
//!   modulators, plans and receiver contexts share nothing;
//! * [`supervisor::Supervisor`] / [`tcp::TcpReceiver`] — the wall clock:
//!   real TCP sockets over loopback, a reader thread, reconnection with
//!   capped exponential backoff and jitter.
//!
//! [`proxy::ProxySession`], §7's third-party modulator placement, is not
//! a third driver: it is one raw source → broker hop in front of a
//! `SimSession` whose sender host is the broker.
//!
//! Beside them, [`node::NodeServer`] / [`node::TcpNode`] are the
//! loopback-TCP cluster nodes of the multi-host router (`mpart route`): a
//! session manager behind a line protocol, and the client endpoint the
//! router dials with the supervisor's backoff and per-instance jitter
//! spread.
//!
//! Batching is the machine's, so both of its drivers have it: up to K
//! continuation envelopes are coalesced into one checksummed frame with a
//! flush deadline ([`supervisor::Supervisor::with_batching`],
//! [`sim::SimConfig::with_batching`]), amortizing framing overhead while
//! preserving per-session ordering and retransmission semantics — the
//! frame is the unit of loss. See the repository's `ARCHITECTURE.md`
//! ("Throughput layer", "Where to add X") for how the pieces fit into
//! the full paper-to-code map.
//!
//! ## Example: a virtual-time session end to end
//!
//! ```
//! use std::sync::Arc;
//! use mpart::profile::TriggerPolicy;
//! use mpart_cost::DataSizeModel;
//! use mpart_ir::interp::BuiltinRegistry;
//! use mpart_ir::parse::parse_program;
//! use mpart_ir::Value;
//! use mpart_jecho::{SimConfig, SimSession};
//! use mpart_simnet::{Host, Link, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(parse_program(r#"
//!     fn tally(x) {
//!         y = x * 2
//!         native store(y)
//!         return y
//!     }
//! "#)?);
//! let mut receiver_builtins = BuiltinRegistry::new();
//! receiver_builtins.register_native("store", 1, |_, _| Ok(Value::Null));
//! let config = SimConfig::new(
//!     Host::new("source", 1_000_000.0),
//!     Link::new("lan", SimTime::from_millis(1), 1_000_000.0),
//!     Host::new("subscriber", 1_000_000.0),
//!     TriggerPolicy::Never,
//! );
//! let mut session = SimSession::adaptive(
//!     Arc::clone(&program),
//!     "tally",
//!     Arc::new(DataSizeModel::new()),
//!     BuiltinRegistry::new(),
//!     receiver_builtins,
//!     config,
//! )?;
//! let report = session.deliver(|_| Ok(vec![Value::Int(21)]))?;
//! assert!(report.delivered);
//! assert_eq!(report.ret, Some(Value::Int(42)));
//! # Ok(())
//! # }
//! ```

pub mod envelope;
pub mod link;
pub mod node;
pub mod proxy;
pub mod sim;
pub mod supervisor;
pub mod tcp;

pub use envelope::{EncodedFrame, Frame, ModulatedEvent, PlanEnvelope};
pub use link::LinkMachine;
pub use proxy::{ProxyConfig, ProxyReport, ProxySession};
pub use sim::{SimConfig, SimReport, SimSession};
pub use supervisor::{RetryPolicy, Supervisor};
pub use tcp::TcpReceiver;
