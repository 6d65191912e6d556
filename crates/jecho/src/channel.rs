//! In-process event channels: the JECho programming model.
//!
//! A channel connects one event *source* to any number of *subscribers*
//! (Figure 1 of the paper: one sender, several receivers, each receiver's
//! modulator installed inside the sender). Subscribers submit a handler
//! function and a cost model; the channel analyzes the handler, installs
//! the modulator at the source side, and keeps the demodulator plus the
//! Reconfiguration Unit at the subscriber side.
//!
//! This module wires everything synchronously in one process — the
//! simplest correct transport, used by unit tests and as the reference
//! semantics for the simulated ([`crate::sim`]) and threaded
//! ([`crate::local`]) transports.

use std::sync::Arc;

use mpart::modulator::Modulator;
use mpart::profile::TriggerPolicy;
use mpart::reconfig::ReconfigUnit;
use mpart::subscriber::{Subscriber, Timing};
use mpart::{PartitionedHandler, PseId};
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::PlanReason;

use crate::envelope::ModulatedEvent;

/// Identifier of a subscriber within a channel.
pub type SubscriberId = usize;

/// What happened when one event was delivered to one subscriber.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// The subscriber.
    pub subscriber: SubscriberId,
    /// Where the handler split.
    pub split_pse: PseId,
    /// Bytes the modulated event put on the wire.
    pub wire_bytes: usize,
    /// The handler's return value.
    pub ret: Option<Value>,
    /// Whether this delivery triggered a plan reconfiguration.
    pub reconfigured: bool,
    /// Modulator work units.
    pub mod_work: u64,
    /// Demodulator work units.
    pub demod_work: u64,
}

struct SubscriberState {
    modulator: Modulator,
    subscriber: Subscriber,
    ctx: ExecCtx,
}

/// An in-process event channel with synchronous delivery.
pub struct EventChannel {
    program: Arc<Program>,
    sender_builtins: BuiltinRegistry,
    subscribers: Vec<SubscriberState>,
    seq: u64,
}

impl std::fmt::Debug for EventChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventChannel")
            .field("subscribers", &self.subscribers.len())
            .field("seq", &self.seq)
            .finish()
    }
}

impl EventChannel {
    /// Creates a channel over `program`. `sender_builtins` are the pure
    /// builtins available at the source side (senders have no native
    /// builtins: native code is receiver-anchored by definition).
    pub fn new(program: Arc<Program>, sender_builtins: BuiltinRegistry) -> Self {
        EventChannel { program, sender_builtins, subscribers: Vec::new(), seq: 0 }
    }

    /// Subscribes a handler: analyzes it under `model`, installs the
    /// modulator into the source, and keeps the demodulator with the
    /// subscriber's execution context (`receiver_builtins` provides its
    /// natives).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn subscribe(
        &mut self,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        receiver_builtins: BuiltinRegistry,
        trigger: TriggerPolicy,
    ) -> Result<SubscriberId, IrError> {
        let kind = model.kind();
        let handler = PartitionedHandler::analyze(Arc::clone(&self.program), handler_fn, model)?;
        let ctx = ExecCtx::without_digests(&self.program, receiver_builtins);
        let reconfig = ReconfigUnit::new(Arc::clone(handler.analysis()), kind, trigger);
        let id = self.subscribers.len();
        self.subscribers.push(SubscriberState {
            modulator: handler.modulator(),
            subscriber: Subscriber::new(handler, reconfig),
            ctx,
        });
        Ok(id)
    }

    /// Number of subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Whether the channel has no subscribers.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// The analyzed handler of a subscriber.
    pub fn handler(&self, id: SubscriberId) -> &Arc<PartitionedHandler> {
        self.subscribers[id].subscriber.handler()
    }

    /// The subscriber's execution context (its heap, globals, trace).
    pub fn subscriber_ctx(&self, id: SubscriberId) -> &ExecCtx {
        &self.subscribers[id].ctx
    }

    /// The subscriber's Reconfiguration Unit.
    pub fn reconfig(&self, id: SubscriberId) -> &ReconfigUnit {
        self.subscribers[id].subscriber.reconfig()
    }

    /// Publishes one event: for every subscriber, builds the event inside
    /// a fresh source-side context via `make_event`, runs that
    /// subscriber's modulator, ships the modulated event, runs the
    /// demodulator, and feeds the profiling/reconfiguration machinery.
    ///
    /// `make_event` runs once per subscriber (each receiver's modulator
    /// touches its own copy of the message, as with separate JECho event
    /// delivery).
    ///
    /// # Errors
    ///
    /// Propagates handler runtime errors.
    pub fn publish(
        &mut self,
        mut make_event: impl FnMut(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<Vec<DeliveryReport>, IrError> {
        self.seq += 1;
        let seq = self.seq;
        let mut reports = Vec::with_capacity(self.subscribers.len());
        for (id, sub) in self.subscribers.iter_mut().enumerate() {
            let mut sender_ctx =
                ExecCtx::without_digests(&self.program, self.sender_builtins.clone());
            let args = make_event(&mut sender_ctx)?;
            let run = sub.modulator.handle(&mut sender_ctx, args)?;
            let event = ModulatedEvent { seq, continuation: run.message, samples: run.samples };
            let wire_bytes = event.wire_size();

            let split_pse = event.continuation.pse;
            let applied = sub.subscriber.apply(
                &mut sub.ctx,
                &event.continuation,
                event.samples,
                |demod| Timing::work(run.mod_work, demod),
            )?;
            // Same process, no latency: a validated proposal installs now.
            let reconfigured = applied
                .proposal?
                .is_some_and(|p| sub.subscriber.install(p, PlanReason::Reconfig).is_some());
            reports.push(DeliveryReport {
                subscriber: id,
                split_pse,
                wire_bytes,
                ret: applied.demod.ret,
                reconfigured,
                mod_work: run.mod_work,
                demod_work: applied.demod.demod_work,
            });
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_cost::DataSizeModel;
    use mpart_ir::parse::parse_program;

    const SRC: &str = r#"
        class ImageData { width: int, height: int, buff: ref }

        fn resize(img, w, h) {
            out = new ImageData
            out.width = w
            out.height = h
            nbytes = w * h
            buff = new byte[nbytes]
            out.buff = buff
            return out
        }

        fn show(event) {
            z0 = event instanceof ImageData
            if z0 == 0 goto skip
            img = (ImageData) event
            small = call resize(img, 16, 16)
            native display(small)
            return 1
        skip:
            return 0
        }
    "#;

    fn display_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("display", 10, |_, _| Ok(Value::Null));
        b
    }

    fn event_builder(
        program: &Arc<Program>,
        width: i64,
    ) -> impl FnMut(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
        let classes = &program.classes;
        move |ctx: &mut ExecCtx| {
            let class = classes.id("ImageData").unwrap();
            let decl = classes.decl(class);
            let img = ctx.heap.alloc_object(classes, class);
            let buff =
                ctx.heap.alloc_array(mpart_ir::types::ElemType::Byte, (width * width) as usize);
            ctx.heap.set_field(img, decl.field("width").unwrap(), Value::Int(width))?;
            ctx.heap.set_field(img, decl.field("height").unwrap(), Value::Int(width))?;
            ctx.heap.set_field(img, decl.field("buff").unwrap(), Value::Ref(buff))?;
            Ok(vec![Value::Ref(img)])
        }
    }

    #[test]
    fn publish_delivers_to_all_subscribers() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut channel = EventChannel::new(Arc::clone(&program), BuiltinRegistry::new());
        let a = channel
            .subscribe(
                "show",
                Arc::new(DataSizeModel::new()),
                display_builtins(),
                TriggerPolicy::Never,
            )
            .unwrap();
        let b = channel
            .subscribe(
                "show",
                Arc::new(DataSizeModel::new()),
                display_builtins(),
                TriggerPolicy::Never,
            )
            .unwrap();
        let reports = channel.publish(event_builder(&program, 32)).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].ret, Some(Value::Int(1)));
        assert_eq!(reports[1].ret, Some(Value::Int(1)));
        assert_eq!(channel.subscriber_ctx(a).trace.len(), 1);
        assert_eq!(channel.subscriber_ctx(b).trace.len(), 1);
    }

    #[test]
    fn adaptation_switches_plan_when_sizes_flip() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut channel = EventChannel::new(Arc::clone(&program), BuiltinRegistry::new());
        let id = channel
            .subscribe(
                "show",
                Arc::new(DataSizeModel::new()),
                display_builtins(),
                TriggerPolicy::Rate(1),
            )
            .unwrap();
        // Large frames (64x64 = 4096B raw vs 16x16 = 256B resized):
        // splitting after the resize is optimal.
        for _ in 0..6 {
            channel.publish(event_builder(&program, 64)).unwrap();
        }
        let plan_large = channel.handler(id).plan().active();
        let late_pse = channel
            .handler(id)
            .analysis()
            .pses()
            .iter()
            .position(|p| !p.edge.is_entry() && !p.inter.is_empty());
        assert!(
            late_pse.is_some_and(|p| plan_large.contains(&p)),
            "large frames should split late: {plan_large:?}"
        );

        // Tiny frames (8x8 = 64B raw vs 256B resized): ship raw.
        for _ in 0..8 {
            channel.publish(event_builder(&program, 8)).unwrap();
        }
        let plan_small = channel.handler(id).plan().active();
        let entry = channel.handler(id).entry_pse().unwrap();
        assert!(plan_small.contains(&entry), "small frames should ship raw: {plan_small:?}");
        assert!(channel.reconfig(id).reconfigurations() >= 2);
    }

    #[test]
    fn non_image_events_filtered_cheaply() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut channel = EventChannel::new(Arc::clone(&program), BuiltinRegistry::new());
        let id = channel
            .subscribe(
                "show",
                Arc::new(DataSizeModel::new()),
                display_builtins(),
                TriggerPolicy::Rate(1),
            )
            .unwrap();
        for _ in 0..5 {
            let reports = channel.publish(|_| Ok(vec![Value::Int(3)])).unwrap();
            assert_eq!(reports[0].ret, Some(Value::Int(0)));
        }
        // After adaptation, filtered events ship almost nothing.
        let reports = channel.publish(|_| Ok(vec![Value::Int(3)])).unwrap();
        assert!(reports[0].wire_bytes < 64, "filtered event wire bytes: {}", reports[0].wire_bytes);
        assert_eq!(channel.subscriber_ctx(id).trace.len(), 0, "display never ran");
    }
}
