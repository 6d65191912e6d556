//! The modulator: the sender-side half of a partitioned handler.
//!
//! "When a message is sent to a receiver, the message is first touched by
//! the sender using the receiver's modulator, and any data emitted by the
//! modulator is sent and then touched by the demodulator in the receiver"
//! (§2.1). The modulator executes the handler prefix up to the first
//! *active* Potential Split Edge, runs the per-PSE profiling code on the
//! way (when the PSE's profiling flag is set), and packs a
//! [`ContinuationMessage`] at the split.
//!
//! The pack is the hot path's one serialization: the `INTER` live set is
//! marshalled into a single immutable buffer that transports then borrow
//! by refcount all the way to the socket (zero-copy frame encoding;
//! WIRE.md). Everything the modulator returns in a [`ModRun`] is
//! therefore cheap to clone and to retransmit.

use std::sync::Arc;

use mpart_ir::heap::Heap;
use mpart_ir::interp::{EdgeAction, EdgeObserver, ExecCtx, Outcome};
use mpart_ir::{IrError, Value};

use crate::continuation::ContinuationMessage;
use crate::partitioned::PartitionedHandler;
use crate::plan::PlanView;
use crate::profile::PseSample;
use crate::PseId;

/// Result of one modulator invocation.
#[derive(Debug, Clone)]
pub struct ModRun {
    /// The continuation to ship to the receiver.
    pub message: ContinuationMessage,
    /// Profiling observations collected along the executed prefix (one per
    /// traversed PSE whose profiling flag was set).
    pub samples: Vec<PseSample>,
    /// Work units the modulator consumed for this message.
    pub mod_work: u64,
    /// Work units spent running the profiling probes themselves (§2.5's
    /// conditional profiling exists to bound this).
    pub profile_work: u64,
}

/// The sender-side half of a [`PartitionedHandler`].
///
/// Cheap to clone; all clones share the handler's atomic plan, so a
/// reconfiguration is visible to every installed modulator instantly.
#[derive(Debug, Clone)]
pub struct Modulator {
    handler: Arc<PartitionedHandler>,
}

impl Modulator {
    pub(crate) fn new(handler: Arc<PartitionedHandler>) -> Self {
        Modulator { handler }
    }

    /// The shared handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// Processes one message on the sender: executes the handler prefix up
    /// to the first active PSE and packs the remote continuation.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if the current plan is not a
    /// valid cut (execution would reach a stop node on the sender), plus
    /// any runtime error from the handler prefix.
    pub fn handle(&self, ctx: &mut ExecCtx, args: Vec<Value>) -> Result<ModRun, IrError> {
        let func = self.handler.func();
        if args.len() != func.params {
            return Err(IrError::Type(format!(
                "handler `{}` expects {} args, got {}",
                func.name,
                func.params,
                args.len()
            )));
        }
        let work_start = ctx.work;
        // One consistent read of the plan at message start: every split
        // and profiling decision of this message comes from `view`, and
        // the message is stamped with the epoch that installed its split
        // mask — a racing install can neither change the decisions
        // mid-flight nor mix two plans into one (a torn view could miss
        // every active edge on the taken path and run into a stop node).
        let view = self.handler.plan().snapshot();
        let epoch = view.epoch;
        let mut observer = ModObserver {
            handler: &self.handler,
            samples: Vec::new(),
            work_base: work_start,
            split_at: None,
            violation: None,
            profile_work: 0,
            view,
        };

        // Entry-edge split: ship the raw message without touching it.
        if let Some(entry) = self.handler.entry_pse() {
            if observer.probe(entry, &args, &ctx.heap, 0) {
                let mut env = vec![Value::Null; func.locals];
                for (i, a) in args.into_iter().enumerate() {
                    env[i] = a;
                }
                let pse = &self.handler.analysis().pses()[entry];
                let message = ContinuationMessage::pack(entry, pse, &env, &ctx.heap, 0, epoch)?;
                return Ok(self.finish(observer, message, ctx.work - work_start));
            }
        }

        // A handler whose very first instruction is a stop node can only
        // be covered by the entry split; edge observation starts after the
        // first instruction, so catch this before executing anything.
        let start = self.handler.analysis().ug.start();
        if self.handler.analysis().stops.is_stop(start) {
            return Err(IrError::Continuation(format!(
                "plan {:?} lets execution reach stop node {start} (the start node) on the sender",
                view.active()
            )));
        }

        // Dispatch through the handler's selected engine: the interpreter
        // is the reference; the bytecode engine observes exactly the same
        // edges (its watched set covers every PSE and stop in-edge).
        let engine = self.handler.engine();
        self.handler.metrics().note_engine_dispatch(engine.name());
        let outcome = engine.run_observed(ctx, func, args, &mut observer)?;

        if let Some((from, to)) = observer.violation {
            return Err(IrError::Continuation(format!(
                "plan {:?} lets execution reach stop node {to} from {from} on the sender",
                view.active()
            )));
        }
        match outcome {
            Outcome::Suspended(sp) => {
                let pse_id = observer.split_at.ok_or_else(|| {
                    IrError::Continuation("suspended without recorded PSE".into())
                })?;
                let pse = &self.handler.analysis().pses()[pse_id];
                let mod_work = ctx.work - work_start;
                let message =
                    ContinuationMessage::pack(pse_id, pse, &sp.env, &ctx.heap, mod_work, epoch)?;
                Ok(self.finish(observer, message, mod_work))
            }
            Outcome::Finished(_) => Err(IrError::Continuation(format!(
                "plan {:?} is not a cut: handler completed inside the sender",
                view.active()
            ))),
        }
    }

    /// Assembles a successful run and feeds it into the handler's
    /// instruments.
    fn finish(&self, observer: ModObserver, message: ContinuationMessage, mod_work: u64) -> ModRun {
        let (samples, profile_work) = (observer.samples, observer.profile_work);
        let run = ModRun { message, samples, mod_work, profile_work };
        self.handler.metrics().note_mod_run(
            self.handler.obs(),
            run.message.pse,
            observer.view.epoch,
            run.message.wire_size() as u64,
            run.mod_work,
            run.profile_work,
        );
        run
    }
}

struct ModObserver<'a> {
    handler: &'a Arc<PartitionedHandler>,
    samples: Vec<PseSample>,
    work_base: u64,
    split_at: Option<PseId>,
    violation: Option<(usize, usize)>,
    profile_work: u64,
    /// The message's one plan read.
    view: PlanView,
}

impl ModObserver<'_> {
    /// Runs `pse`'s profiling probe if its flag is set in the message's
    /// view, over the live variables `vars`; returns whether the message
    /// splits there.
    fn probe(&mut self, pse_id: PseId, vars: &[Value], heap: &Heap, mod_work: u64) -> bool {
        let split = self.view.split >> pse_id & 1 == 1;
        if self.view.profile >> pse_id & 1 == 1 {
            let pse = &self.handler.analysis().pses()[pse_id];
            let roots: Vec<Value> = pse.inter.iter().map(|v| vars[v.index()].clone()).collect();
            let classes = &self.handler.program().classes;
            let bytes = self.handler.model().measure_payload(heap, classes, &roots);
            self.profile_work += self.handler.model().profiling_work(heap, classes, &roots);
            self.samples.push(PseSample {
                pse: pse_id,
                mod_work,
                payload_bytes: Some(bytes),
                was_split: split,
            });
        }
        split
    }
}

impl EdgeObserver for ModObserver<'_> {
    fn on_edge(
        &mut self,
        from: usize,
        to: usize,
        vars: &[Value],
        heap: &Heap,
        work: u64,
    ) -> EdgeAction {
        if let Some(pse_id) = self.handler.pse_of_edge(from, to) {
            if self.probe(pse_id, vars, heap, work - self.work_base) {
                self.split_at = Some(pse_id);
                return EdgeAction::Suspend;
            }
        }
        // Defensive cut check: an edge into a stop node that we are not
        // splitting at means the plan would execute receiver-anchored code
        // on the sender. Halt before it runs.
        if self.handler.analysis().stops.is_stop(to) {
            self.violation = Some((from, to));
            return EdgeAction::Suspend;
        }
        EdgeAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
        class ImageData { width: int, buff: ref }
        fn push(event) {
            z0 = event instanceof ImageData
            if z0 == 0 goto skip
            r2 = (ImageData) event
            w = r2.width
            native display_image(w)
            return
        skip:
            return
        }
    "#;

    fn setup() -> (Arc<mpart_ir::Program>, Arc<PartitionedHandler>) {
        let program = Arc::new(parse_program(SRC).unwrap());
        let h = PartitionedHandler::analyze(
            Arc::clone(&program),
            "push",
            Arc::new(DataSizeModel::new()),
        )
        .unwrap();
        (program, h)
    }

    /// Installs the "process on the sender" plan: split at the last edge
    /// of every path instead of the entry.
    fn install_late_plan(h: &Arc<PartitionedHandler>) {
        let late: Vec<usize> = h
            .analysis()
            .pses()
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.edge.is_entry())
            .map(|(i, _)| i)
            .collect();
        h.plan().install(&late);
        h.plan().validate_cut(h.analysis()).unwrap();
    }

    #[test]
    fn modulator_filters_wrong_type_on_sender() {
        let (program, h) = setup();
        install_late_plan(&h);
        let m = h.modulator();
        let mut ctx = ExecCtx::new(&program);
        // A non-ImageData event: the skip path's PSE carries nothing.
        let run = m.handle(&mut ctx, vec![Value::Int(7)]).unwrap();
        let pse = &h.analysis().pses()[run.message.pse];
        assert!(pse.inter.is_empty(), "filtered event ships no data");
        assert!(run.message.payload.wire_size() < 16);
    }

    #[test]
    fn modulator_ships_processed_data_on_main_path() {
        let (program, h) = setup();
        install_late_plan(&h);
        let m = h.modulator();
        let mut ctx = ExecCtx::new(&program);
        let image =
            ctx.heap.alloc_object(&program.classes, program.classes.id("ImageData").unwrap());
        ctx.heap
            .set_field(
                image,
                program
                    .classes
                    .decl(program.classes.id("ImageData").unwrap())
                    .field("width")
                    .unwrap(),
                Value::Int(320),
            )
            .unwrap();
        let run = m.handle(&mut ctx, vec![Value::Ref(image)]).unwrap();
        assert!(run.mod_work > 0);
        assert!(!run.samples.is_empty(), "profiling flags default on");
    }

    #[test]
    fn empty_plan_is_rejected_at_runtime() {
        let (program, h) = setup();
        h.plan().install(&[]); // deliberately invalid
        let m = h.modulator();
        let mut ctx = ExecCtx::new(&program);
        let err = m.handle(&mut ctx, vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, IrError::Continuation(_)), "{err}");
    }

    #[test]
    fn arity_checked() {
        let (program, h) = setup();
        let m = h.modulator();
        let mut ctx = ExecCtx::new(&program);
        assert!(m.handle(&mut ctx, vec![]).is_err());
    }

    #[test]
    fn profiling_flags_suppress_samples() {
        let (program, h) = setup();
        for i in 0..h.analysis().pses().len() {
            h.plan().set_profiled(i, false);
        }
        let m = h.modulator();
        let mut ctx = ExecCtx::new(&program);
        let run = m.handle(&mut ctx, vec![Value::Int(7)]).unwrap();
        assert!(run.samples.is_empty());
    }
}
