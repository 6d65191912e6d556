//! The subscriber step: what happens when one continuation envelope
//! reaches the receiver, written once for every transport.
//!
//! The paper's runtime is three roles and a feedback channel. Whatever
//! wire carried the continuation, the receiver does the same thing with
//! it: run the demodulator (inside the panic-isolation boundary), release
//! what the envelope allocated on the receiver's heap, feed the
//! Reconfiguration Unit — modulator profile, demodulator samples,
//! demodulator profile, in that order — let it re-select, and gate the
//! re-selection before anything can install it. [`Subscriber::apply`] is
//! that step. It hands back the demodulator's result and, when the unit
//! chose a *different, valid* cut, a [`Proposal`]. The transport decides
//! only **when** the proposal lands: at once ([`Subscriber::install`] —
//! TCP, threads, in-process channel, session manager), or after the
//! feedback latency it models ([`Subscriber::defer`], then
//! [`Subscriber::install_due`] — sim, proxy); a proposal it loses on the
//! way or refuses is simply dropped.
//!
//! Receiver state is envelope-scoped: the unmarshalled continuation and
//! whatever the handler suffix allocated are freed when the demodulator
//! returns (or fails), so a receiver's memory does not grow with the
//! session. What a handler *publishes* survives — an object it stored
//! into a global, into an object an earlier envelope published, or
//! returned ([`Heap::release`] has the exact rule) — and an `ObjRef` a
//! native was handed is valid for that call only.
//!
//! [`Heap::release`]: mpart_ir::heap::Heap::release
//!
//! The gate is the same everywhere:
//!
//! 1. a re-selection naming the plan that is already serving — or already
//!    on its way to the sender — is dropped: installing it would only
//!    advance the stale-plan horizon;
//! 2. the candidate must pass
//!    [`PartitionedHandler::validate_candidate`], counted on
//!    `plan_prepares_total{outcome}`; a rejected candidate never reaches
//!    the serving plan.

use std::collections::VecDeque;
use std::sync::Arc;

use mpart_ir::interp::ExecCtx;
use mpart_ir::IrError;
use mpart_obs::PlanReason;

use crate::continuation::ContinuationMessage;
use crate::demodulator::{DemodRun, Demodulator};
use crate::failure;
use crate::partitioned::PartitionedHandler;
use crate::profile::{DemodMessageProfile, ModMessageProfile, PseSample};
use crate::reconfig::ReconfigUnit;
use crate::PseId;

/// What one envelope cost, as the transport accounts it: work units it
/// charges to each side (a transport that models marshalling adds it
/// here) and elapsed time where it has a clock, virtual or real.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Work units charged to the modulator side.
    pub mod_work: u64,
    /// Modulator-side elapsed seconds, if measured.
    pub t_mod: Option<f64>,
    /// Work units charged to the demodulator side.
    pub demod_work: u64,
    /// Demodulator-side elapsed seconds, if measured.
    pub t_demod: Option<f64>,
}

impl Timing {
    /// Work units only — for transports without a clock.
    pub fn work(mod_work: u64, demod: &DemodRun) -> Timing {
        Timing { mod_work, t_mod: None, demod_work: demod.demod_work, t_demod: None }
    }
}

/// A re-selected active set that differs from the serving plan and passed
/// validation. Hand it back to [`Subscriber::install`] or
/// [`Subscriber::defer`]; dropping it leaves the serving plan alone.
#[derive(Debug)]
pub struct Proposal {
    active: Vec<PseId>,
}

impl Proposal {
    /// The PSE ids the proposal activates.
    pub fn active(&self) -> &[PseId] {
        &self.active
    }
}

/// Result of [`Subscriber::apply`] for an envelope that demodulated.
#[derive(Debug)]
pub struct Applied {
    /// The demodulator's run: return value, work, resumed PSE.
    pub demod: DemodRun,
    /// Whether the Reconfiguration Unit's trigger fired and it re-selected
    /// (whatever became of the selection).
    pub reselected: bool,
    /// The gated re-selection. `Err` means the envelope *was* applied but
    /// the min-cut failed — an analysis invariant broke; retrying the
    /// envelope would apply it twice.
    pub proposal: Result<Option<Proposal>, IrError>,
}

/// The receiver-side roles of one subscription: demodulator and
/// Reconfiguration Unit over a shared [`PartitionedHandler`].
#[derive(Debug)]
pub struct Subscriber {
    handler: Arc<PartitionedHandler>,
    demodulator: Demodulator,
    reconfig: ReconfigUnit,
    /// Deferred proposals on their way to the modulator, oldest first,
    /// as `(due, active)`. The newest is what the modulator will be
    /// serving once everything in flight lands, so it is what a new
    /// re-selection is compared against.
    deferred: VecDeque<(u64, Vec<PseId>)>,
}

impl Subscriber {
    /// A subscriber for `handler` steered by `reconfig` (which the caller
    /// configures: trigger, smoothing, observability, plan watch).
    pub fn new(handler: Arc<PartitionedHandler>, reconfig: ReconfigUnit) -> Self {
        Subscriber {
            demodulator: handler.demodulator(),
            handler,
            reconfig,
            deferred: VecDeque::new(),
        }
    }

    /// The shared handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// The Reconfiguration Unit.
    pub fn reconfig(&self) -> &ReconfigUnit {
        &self.reconfig
    }

    /// Applies one continuation: demodulate inside [`failure::isolate`],
    /// release the envelope's heap cells (unless the handler published
    /// one through `ctx.globals`, an older object or its return value),
    /// feed the Reconfiguration Unit, re-select, gate. `samples` are the
    /// modulator-side profiling samples that travelled with the
    /// continuation; `timing` is asked once the demodulator has run, so a
    /// transport whose clock depends on the demodulator's work can price
    /// it.
    ///
    /// # Errors
    ///
    /// The demodulator's error (a panic surfaces as
    /// [`IrError::HandlerPanic`]): the envelope was **not** applied and
    /// nothing was recorded; its heap cells are released all the same.
    pub fn apply(
        &mut self,
        ctx: &mut ExecCtx,
        continuation: &ContinuationMessage,
        samples: Vec<PseSample>,
        timing: impl FnOnce(&DemodRun) -> Timing,
    ) -> Result<Applied, IrError> {
        let demodulator = &self.demodulator;
        let mark = ctx.heap.mark();
        let demod = failure::isolate(|| demodulator.handle(ctx, continuation));
        let ret = demod.as_ref().ok().and_then(|run| run.ret.as_ref());
        ctx.heap.release(mark, ctx.globals.iter().chain(ret));
        self.handler.metrics().note_receiver_heap(ctx.heap.len());
        let demod = demod?;
        let t = timing(&demod);
        self.reconfig.record_mod(ModMessageProfile {
            samples,
            split: continuation.pse,
            mod_work: t.mod_work,
            t_mod: t.t_mod,
        });
        self.reconfig.record_samples(&demod.samples);
        self.reconfig.record_demod(DemodMessageProfile {
            pse: demod.pse,
            demod_work: t.demod_work,
            t_demod: t.t_demod,
        });
        let (reselected, proposal) = match self.reconfig.maybe_reconfigure() {
            Ok(Some(update)) => (true, Ok(self.gate(update.active))),
            Ok(None) => (false, Ok(None)),
            Err(e) => (false, Err(e)),
        };
        Ok(Applied { demod, reselected, proposal })
    }

    fn gate(&self, active: Vec<PseId>) -> Option<Proposal> {
        let unchanged = match self.deferred.back() {
            Some((_, pending)) => *pending == active,
            None => self.handler.plan().active_eq(&active),
        };
        if unchanged {
            return None;
        }
        let valid = self.handler.validate_candidate(&active).is_ok();
        self.handler.metrics().note_prepare(if valid { "ready" } else { "rejected" });
        valid.then_some(Proposal { active })
    }

    /// The proposal reached the modulator: install it under `reason`,
    /// recording the generation in the plan history, and tell the
    /// Reconfiguration Unit the epoch bump is its own. Returns the new
    /// epoch, or `None` when the serving plan already equals the proposal
    /// (a deferred proposal can be overtaken) and nothing was installed.
    pub fn install(&mut self, proposal: Proposal, reason: PlanReason) -> Option<u64> {
        if self.handler.plan().active_eq(&proposal.active) {
            return None;
        }
        let epoch = self.handler.install_plan_reason(&proposal.active, reason);
        self.reconfig.acknowledge_epoch(epoch);
        Some(epoch)
    }

    /// The proposal is on its way and reaches the modulator at `due`, on
    /// whatever clock the caller keeps; dues must not decrease from one
    /// call to the next. [`install_due`](Self::install_due) lands it.
    pub fn defer(&mut self, proposal: Proposal, due: u64) {
        debug_assert!(self.deferred.back().is_none_or(|(last, _)| *last <= due));
        self.deferred.push_back((due, proposal.active));
    }

    /// Installs, in order, every deferred proposal due by `now`; returns
    /// how many actually switched the plan.
    pub fn install_due(&mut self, now: u64, reason: PlanReason) -> u64 {
        let mut installed = 0;
        while self.deferred.front().is_some_and(|(due, _)| *due <= now) {
            if let Some((_, active)) = self.deferred.pop_front() {
                installed += u64::from(self.install(Proposal { active }, reason).is_some());
            }
        }
        installed
    }

    /// Marks `epoch` as an install the caller made deliberately (operator
    /// commit, rollback), so the plan watch does not reset the feedback
    /// window over it.
    pub fn acknowledge_epoch(&mut self, epoch: u64) {
        self.reconfig.acknowledge_epoch(epoch);
    }
}
