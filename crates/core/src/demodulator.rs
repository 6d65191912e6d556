//! The demodulator: the receiver-side half of a partitioned handler.
//!
//! "Upon receiving a continuation message, the demodulator side of the
//! continuation code restores the values of live variables, jumps to the
//! appropriate PSE, and continues processing" (§2.4).
//!
//! On the receive side the payload arrives as a sub-slice of the decoded
//! frame body (transports hand it over as a shared [`Marshalled`] view,
//! no per-field copy); unmarshalling here materializes heap objects from
//! it once, after the frame's CRC has already been verified. The
//! zero-copy *encode* contract (WIRE.md) is sender-side only — nothing
//! in this module holds wire buffers past `handle`'s return.
//!
//! [`Marshalled`]: mpart_ir::marshal::Marshalled

use std::sync::Arc;

use mpart_ir::heap::Heap;
use mpart_ir::interp::{EdgeAction, EdgeObserver, ExecCtx, Outcome};
use mpart_ir::{IrError, Value};

use crate::continuation::ContinuationMessage;
use crate::partitioned::PartitionedHandler;
use crate::profile::PseSample;

/// Result of one demodulator invocation.
#[derive(Debug, Clone)]
pub struct DemodRun {
    /// The handler's return value.
    pub ret: Option<Value>,
    /// Work units the demodulator consumed for this message.
    pub demod_work: u64,
    /// The PSE the message resumed at (for profiling feedback).
    pub pse: crate::PseId,
    /// Receiver-side profiling observations: PSEs traversed *after* the
    /// split also run their profiling code ("feedback containing profiling
    /// information from both the modulator and demodulator sides", §2.5).
    /// `mod_work` in these samples is total work from message start
    /// (sender prefix plus receiver work up to the edge).
    pub samples: Vec<PseSample>,
    /// Work units spent running the receiver-side profiling probes.
    pub profile_work: u64,
}

/// The receiver-side half of a [`PartitionedHandler`].
#[derive(Debug, Clone)]
pub struct Demodulator {
    handler: Arc<PartitionedHandler>,
}

impl Demodulator {
    pub(crate) fn new(handler: Arc<PartitionedHandler>) -> Self {
        Demodulator { handler }
    }

    /// The shared handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// Continues processing a continuation message to completion inside
    /// `ctx` (the receiver's execution context, which owns the natives and
    /// globals the handler's stop nodes touch).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::StalePlan`] if the message was modulated under a
    /// plan generation the handler no longer retains,
    /// [`IrError::Continuation`] for an unknown PSE id or a malformed
    /// payload, plus any runtime error from the handler suffix.
    pub fn handle(
        &self,
        ctx: &mut ExecCtx,
        msg: &ContinuationMessage,
    ) -> Result<DemodRun, IrError> {
        // Epoch admission: resuming is driven entirely by the static
        // analysis, so any *retained* generation demodulates correctly;
        // only messages older than the retained history are refused (their
        // split decisions can no longer be audited against a known plan).
        // The horizon is one atomic the plan publishes on eviction.
        let oldest = self.handler.plan().oldest_admissible_epoch();
        if msg.epoch < oldest {
            self.handler.metrics().note_stale_rejected(self.handler.obs(), msg.epoch, oldest);
            return Err(IrError::StalePlan { epoch: msg.epoch, oldest });
        }
        let analysis = self.handler.analysis();
        let pse = analysis.pses().get(msg.pse).ok_or_else(|| {
            IrError::Continuation(format!(
                "unknown PSE id {} (handler has {})",
                msg.pse,
                analysis.pses().len()
            ))
        })?;
        let func = self.handler.func();
        let work_start = ctx.work;
        let env = msg.unpack(pse, func.locals, &mut ctx.heap, &self.handler.program().classes)?;
        let mut samples = Vec::new();
        let mut profile_work = 0u64;
        let mut observer = DemodObserver {
            handler: &self.handler,
            samples: &mut samples,
            work_base: work_start,
            mod_work: msg.mod_work,
            profile_work: &mut profile_work,
        };
        // Resume through the handler's selected engine; PSE targets are
        // compilation leaders, so a compiled body resumes in bytecode.
        let engine = self.handler.engine();
        self.handler.metrics().note_engine_dispatch(engine.name());
        let outcome = engine.resume_observed(ctx, func, pse.edge.to, env, &mut observer)?;
        match outcome {
            Outcome::Finished(ret) => {
                let demod_work = ctx.work - work_start;
                self.handler.metrics().note_demod_run(msg.pse, demod_work, profile_work);
                Ok(DemodRun { ret, demod_work, pse: msg.pse, samples, profile_work })
            }
            Outcome::Suspended(_) => unreachable!("demodulator observer never suspends"),
        }
    }
}

/// Receiver-side profiling: measures PSE costs along the executed suffix
/// without ever suspending.
struct DemodObserver<'a> {
    handler: &'a Arc<PartitionedHandler>,
    samples: &'a mut Vec<PseSample>,
    work_base: u64,
    mod_work: u64,
    profile_work: &'a mut u64,
}

impl EdgeObserver for DemodObserver<'_> {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        vars: &[Value],
        heap: &Heap,
        work: u64,
    ) -> EdgeAction {
        if let Some(pse_id) = self.handler.pse_of_edge(from, to) {
            if self.handler.plan().is_profiled(pse_id) {
                let pse = &self.handler.analysis().pses()[pse_id];
                let roots: Vec<Value> = pse.inter.iter().map(|v| vars[v.index()].clone()).collect();
                let classes = &self.handler.program().classes;
                let bytes = self.handler.model().measure_payload(heap, classes, &roots);
                *self.profile_work += self.handler.model().profiling_work(heap, classes, &roots);
                self.samples.push(PseSample {
                    pse: pse_id,
                    mod_work: self.mod_work + (work - self.work_base),
                    payload_bytes: Some(bytes),
                    was_split: false,
                });
            }
        }
        EdgeAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_cost::DataSizeModel;
    use mpart_ir::interp::BuiltinRegistry;
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
        fn handle(x) {
            y = x * 3
            z = y + 1
            native deliver(z)
            return z
        }
    "#;

    fn pipeline(active_pse: Option<usize>) -> (Option<Value>, Vec<mpart_ir::interp::TraceEvent>) {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "handle",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        if let Some(p) = active_pse {
            h.plan().install(&[p]);
        }
        let m = h.modulator();
        let d = h.demodulator();
        let mut sender = ExecCtx::new(&program);
        let run = m.handle(&mut sender, vec![Value::Int(5)]).unwrap();
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("deliver", 1, |_, _| Ok(Value::Null));
        let mut receiver = ExecCtx::with_builtins(&program, builtins);
        let out = d.handle(&mut receiver, &run.message).unwrap();
        (out.ret, receiver.trace)
    }

    #[test]
    fn every_pse_choice_gives_same_result() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "handle",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let n = h.analysis().pses().len();
        assert!(n >= 2, "expected several PSEs, got {n}");
        let mut results = Vec::new();
        for p in 0..n {
            let (ret, trace) = pipeline(Some(p));
            assert_eq!(ret, Some(Value::Int(16)), "pse {p}");
            assert_eq!(trace.len(), 1, "pse {p}");
            results.push(trace[0].args_digest.clone());
        }
        // Native observed identical arguments regardless of split point.
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn default_plan_works_end_to_end() {
        let (ret, trace) = pipeline(None);
        assert_eq!(ret, Some(Value::Int(16)));
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn superseded_but_retained_epoch_still_demodulates() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "handle",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let m = h.modulator();
        let d = h.demodulator();
        let mut sender = ExecCtx::new(&program);
        let run = m.handle(&mut sender, vec![Value::Int(5)]).unwrap();
        // The plan moves on while the message is in flight; the message's
        // generation is still retained, so it demodulates fine.
        let all: Vec<usize> = (0..h.analysis().pses().len()).collect();
        h.install_plan(&all);
        assert!(h.plan().epoch() > run.message.epoch);
        let mut builtins = BuiltinRegistry::new();
        builtins.register_native("deliver", 1, |_, _| Ok(Value::Null));
        let mut receiver = ExecCtx::with_builtins(&program, builtins);
        let out = d.handle(&mut receiver, &run.message).unwrap();
        assert_eq!(out.ret, Some(Value::Int(16)));
    }

    #[test]
    fn stale_epoch_rejected_once_history_evicts() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "handle",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        h.plan().set_retention(2);
        let m = h.modulator();
        let d = h.demodulator();
        let mut sender = ExecCtx::new(&program);
        let run = m.handle(&mut sender, vec![Value::Int(5)]).unwrap();
        // Burn through generations until the message's epoch is evicted.
        let all: Vec<usize> = (0..h.analysis().pses().len()).collect();
        for _ in 0..4 {
            h.install_plan(&all);
        }
        let oldest = h.plan().oldest_admissible_epoch();
        assert!(oldest > run.message.epoch);
        let mut receiver = ExecCtx::new(&program);
        let err = d.handle(&mut receiver, &run.message).unwrap_err();
        assert_eq!(err, IrError::StalePlan { epoch: run.message.epoch, oldest });
        assert!(receiver.trace.is_empty(), "nothing executed for a stale message");
    }

    #[test]
    fn unknown_pse_id_rejected() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "handle",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        let m = h.modulator();
        let d = h.demodulator();
        let mut sender = ExecCtx::new(&program);
        let mut run = m.handle(&mut sender, vec![Value::Int(5)]).unwrap();
        run.message.pse = 999;
        let mut receiver = ExecCtx::new(&program);
        let err = d.handle(&mut receiver, &run.message).unwrap_err();
        assert!(matches!(err, IrError::Continuation(_)), "{err}");
    }
}
