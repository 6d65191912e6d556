//! A real-thread transport: sender and receiver in separate OS threads
//! exchanging modulated events over channels, with wall-clock profiling.
//!
//! The simulated transport ([`crate::sim`]) is what the benchmarks use —
//! it is deterministic. This transport demonstrates that the very same
//! modulator/demodulator objects work across real concurrency: the
//! partition plan lives in shared atomics (flag switching is adaptation),
//! continuations cross a channel as marshalled bytes, and the receiver
//! thread runs the Reconfiguration Unit.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};
use mpart::modulator::{ModRun, Modulator};
use mpart::profile::TriggerPolicy;
use mpart::reconfig::ReconfigUnit;
use mpart::subscriber::{Subscriber, Timing};
use mpart::PartitionedHandler;
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::PlanReason;

use crate::envelope::ModulatedEvent;

enum ToReceiver {
    Event(ModulatedEvent, f64 /* t_mod seconds */, u64 /* mod_work */),
    Shutdown,
}

/// Outcome of one delivery, reported back from the receiver thread.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// Message sequence number.
    pub seq: u64,
    /// Handler return value.
    pub ret: Option<Value>,
    /// The PSE the message split at.
    pub split_pse: mpart::PseId,
    /// Wire bytes of the event.
    pub wire_bytes: usize,
    /// Whether the receiver reconfigured the plan after this message.
    pub reconfigured: bool,
}

/// The source-side roles of a wall-clock session: the program, the shared
/// handler's modulator, and the builtins event construction may call.
pub(crate) struct Source {
    program: Arc<Program>,
    pub(crate) handler: Arc<PartitionedHandler>,
    modulator: Modulator,
    sender_builtins: BuiltinRegistry,
}

impl Source {
    pub(crate) fn new(
        program: Arc<Program>,
        handler: Arc<PartitionedHandler>,
        sender_builtins: BuiltinRegistry,
    ) -> Self {
        Source { modulator: handler.modulator(), program, handler, sender_builtins }
    }

    /// Builds one event in a fresh context and runs the modulator on it;
    /// returns the run and the modulator's wall-clock nanoseconds.
    pub(crate) fn modulate(
        &self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(ModRun, u64), IrError> {
        let mut ctx = ExecCtx::without_digests(&self.program, self.sender_builtins.clone());
        let args = make_event(&mut ctx)?;
        let started = Instant::now();
        let run = self.modulator.handle(&mut ctx, args)?;
        Ok((run, started.elapsed().as_nanos() as u64))
    }
}

/// A live sender↔receiver pair over OS threads.
pub struct LocalPair {
    source: Source,
    to_receiver: Sender<ToReceiver>,
    outcomes: Receiver<LocalOutcome>,
    receiver_thread: Option<JoinHandle<Result<(), IrError>>>,
    seq: u64,
}

impl std::fmt::Debug for LocalPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalPair")
            .field("handler", &self.source.handler.func_name())
            .field("sent", &self.seq)
            .finish()
    }
}

impl LocalPair {
    /// Spawns the receiver thread for `handler_fn` and returns the sender
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn spawn(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        sender_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
    ) -> Result<Self, IrError> {
        let kind = model.kind();
        let handler = PartitionedHandler::analyze(Arc::clone(&program), handler_fn, model)?;
        let (to_receiver, from_sender) = bounded::<ToReceiver>(64);
        let (outcome_tx, outcomes) = bounded::<LocalOutcome>(1024);

        let recv_handler = Arc::clone(&handler);
        let recv_program = Arc::clone(&program);
        let receiver_thread = std::thread::spawn(move || -> Result<(), IrError> {
            let mut ctx = ExecCtx::without_digests(&recv_program, receiver_builtins);
            let reconfig = ReconfigUnit::new(Arc::clone(recv_handler.analysis()), kind, trigger);
            let mut subscriber = Subscriber::new(recv_handler, reconfig);
            while let Ok(msg) = from_sender.recv() {
                match msg {
                    ToReceiver::Shutdown => break,
                    ToReceiver::Event(event, t_mod, mod_work) => {
                        let wire_bytes = event.wire_size();
                        let started = Instant::now();
                        let applied = subscriber.apply(
                            &mut ctx,
                            &event.continuation,
                            event.samples,
                            |demod| Timing {
                                mod_work,
                                t_mod: Some(t_mod),
                                demod_work: demod.demod_work,
                                t_demod: Some(started.elapsed().as_secs_f64()),
                            },
                        );
                        // Nothing outside this thread can read the context,
                        // so its native-call trace goes the way of the heap
                        // cells.
                        ctx.trace.clear();
                        let applied = applied?;
                        // The plan flags are shared atomics: installing
                        // here is the "send a new partitioning plan to
                        // the modulator side" step.
                        let reconfigured = applied
                            .proposal?
                            .is_some_and(|p| subscriber.install(p, PlanReason::Reconfig).is_some());
                        // Non-blocking for the same reason as the TCP
                        // transport: a full outcome channel must not wedge
                        // shutdown.
                        let _ = outcome_tx.try_send(LocalOutcome {
                            seq: event.seq,
                            ret: applied.demod.ret,
                            split_pse: event.continuation.pse,
                            wire_bytes,
                            reconfigured,
                        });
                    }
                }
            }
            Ok(())
        });

        Ok(LocalPair {
            source: Source::new(program, handler, sender_builtins),
            to_receiver,
            outcomes,
            receiver_thread: Some(receiver_thread),
            seq: 0,
        })
    }

    /// The analyzed handler (shared with the receiver thread).
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.source.handler
    }

    /// Publishes one event; the modulator runs in the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates modulator errors; returns [`IrError::Continuation`] if
    /// the receiver has shut down.
    pub fn publish(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<(), IrError> {
        self.seq += 1;
        let (run, t_mod_nanos) = self.source.modulate(make_event)?;
        let t_mod = t_mod_nanos as f64 / 1e9;
        let event =
            ModulatedEvent { seq: self.seq, continuation: run.message, samples: run.samples };
        self.to_receiver
            .send(ToReceiver::Event(event, t_mod, run.mod_work))
            .map_err(|_| IrError::Continuation("receiver has shut down".into()))
    }

    /// Waits for the outcome of the next processed message.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Continuation`] if the receiver has shut down.
    pub fn next_outcome(&self) -> Result<LocalOutcome, IrError> {
        self.outcomes.recv().map_err(|_| IrError::Continuation("receiver has shut down".into()))
    }

    /// Shuts the receiver down and joins it, returning its final result.
    ///
    /// # Errors
    ///
    /// Propagates any handler error the receiver thread hit.
    pub fn shutdown(mut self) -> Result<(), IrError> {
        let _ = self.to_receiver.send(ToReceiver::Shutdown);
        if let Some(t) = self.receiver_thread.take() {
            match t.join() {
                Ok(result) => result,
                Err(_) => Err(IrError::Continuation("receiver thread panicked".into())),
            }
        } else {
            Ok(())
        }
    }
}

impl Drop for LocalPair {
    fn drop(&mut self) {
        let _ = self.to_receiver.send(ToReceiver::Shutdown);
        if let Some(t) = self.receiver_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;
    use mpart_ir::types::ElemType;

    const SRC: &str = r#"
        class Blob { n: int, buff: ref }

        fn squeeze(b) {
            out = new Blob
            out.n = 8
            d = new byte[8]
            out.buff = d
            return out
        }

        fn sink(event) {
            z = event instanceof Blob
            if z == 0 goto skip
            b = (Blob) event
            s = call squeeze(b)
            native store(s)
            return 1
        skip:
            return 0
        }
    "#;

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("store", 1, |_, _| Ok(Value::Null));
        b
    }

    fn blob(
        program: &Arc<Program>,
        n: usize,
    ) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
        let classes = &program.classes;
        move |ctx| {
            let class = classes.id("Blob").unwrap();
            let decl = classes.decl(class);
            let o = ctx.heap.alloc_object(classes, class);
            let d = ctx.heap.alloc_array(ElemType::Byte, n);
            ctx.heap.set_field(o, decl.field("n").unwrap(), Value::Int(n as i64))?;
            ctx.heap.set_field(o, decl.field("buff").unwrap(), Value::Ref(d))?;
            Ok(vec![Value::Ref(o)])
        }
    }

    #[test]
    fn threaded_round_trip_and_adaptation() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut pair = LocalPair::spawn(
            Arc::clone(&program),
            "sink",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            TriggerPolicy::Rate(1),
        )
        .unwrap();

        // Interleave publish/outcome so each plan update (installed by the
        // receiver thread into the shared atomic flags) is visible to the
        // next publish.
        let mut last_bytes = usize::MAX;
        for _ in 0..10 {
            pair.publish(blob(&program, 50_000)).unwrap();
            let outcome = pair.next_outcome().unwrap();
            assert_eq!(outcome.ret, Some(Value::Int(1)));
            last_bytes = outcome.wire_bytes;
        }
        // After adaptation, the squeezed blob (8B) crosses instead of 50KB.
        assert!(last_bytes < 1000, "adapted wire bytes: {last_bytes}");
        pair.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_clean_even_without_traffic() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let pair = LocalPair::spawn(
            Arc::clone(&program),
            "sink",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .unwrap();
        pair.shutdown().unwrap();
    }

    #[test]
    fn publish_after_shutdown_errors() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut pair = LocalPair::spawn(
            Arc::clone(&program),
            "sink",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            TriggerPolicy::Never,
        )
        .unwrap();
        // Simulate receiver death by dropping its channel end via shutdown
        // message and join.
        let _ = pair.to_receiver.send(ToReceiver::Shutdown);
        if let Some(t) = pair.receiver_thread.take() {
            t.join().unwrap().unwrap();
        }
        let err = pair.publish(blob(&program, 10));
        assert!(err.is_err());
    }
}
