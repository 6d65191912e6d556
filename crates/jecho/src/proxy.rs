//! Third-party modulator placement — the integration of *Third Party
//! Derivation* that §7 describes as ongoing work: "allows a modulator to
//! operate inside a 'third party'", the first step of "propagating
//! modulators upward along a data stream".
//!
//! Topology: `source → uplink → proxy → downlink → receiver`. The source
//! is too constrained (or too opaque) to host the modulator, so it ships
//! raw events to a broker host; the broker runs the receiver's modulator
//! and forwards continuations. This pays the uplink in raw bytes but
//! still customizes the (typically slower or thinner) downlink, and
//! off-loads modulator CPU from the source entirely.

use std::sync::Arc;

use mpart::modulator::Modulator;
use mpart::profile::TriggerPolicy;
use mpart::reconfig::ReconfigUnit;
use mpart::subscriber::{Subscriber, Timing};
use mpart::{PartitionedHandler, PseId};
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::marshal::{marshal_values, unmarshal_values};
use mpart_ir::{IrError, Program, Value};
use mpart_obs::PlanReason;
use mpart_simnet::{Host, Link, SimTime};

use crate::envelope::ModulatedEvent;

/// Hosts and links of a proxied deployment.
#[derive(Debug)]
pub struct ProxyConfig {
    /// The (possibly tiny) event source.
    pub source: Host,
    /// Source → proxy link, carrying raw events.
    pub uplink: Link,
    /// The broker that hosts the modulator.
    pub proxy: Host,
    /// Proxy → receiver link, carrying continuations.
    pub downlink: Link,
    /// The subscriber.
    pub receiver: Host,
    /// Adaptation trigger.
    pub trigger: TriggerPolicy,
    /// Marshalling work per byte on every hop endpoint.
    pub serialize_work_per_byte: f64,
}

/// Per-message report of a proxied delivery.
#[derive(Debug, Clone)]
pub struct ProxyReport {
    /// Message sequence number.
    pub seq: u64,
    /// Bytes on the uplink (raw event).
    pub uplink_bytes: usize,
    /// Bytes on the downlink (continuation).
    pub downlink_bytes: usize,
    /// The PSE the proxy's modulator split at.
    pub split_pse: PseId,
    /// Completion time of the message at the receiver.
    pub done: SimTime,
    /// Handler return value.
    pub ret: Option<Value>,
}

/// A simulated source → proxy → receiver session with the modulator at
/// the proxy.
pub struct ProxySession {
    program: Arc<Program>,
    handler: Arc<PartitionedHandler>,
    modulator: Modulator,
    subscriber: Subscriber,
    proxy_builtins: BuiltinRegistry,
    receiver_ctx: ExecCtx,
    source: Host,
    uplink: Link,
    proxy: Host,
    downlink: Link,
    receiver: Host,
    serialize_work_per_byte: f64,
    reports: Vec<ProxyReport>,
    seq: u64,
    plan_installs: u64,
    first_gen: Option<SimTime>,
}

impl std::fmt::Debug for ProxySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxySession")
            .field("handler", &self.handler.func_name())
            .field("messages", &self.seq)
            .finish()
    }
}

impl ProxySession {
    /// Analyzes `handler_fn` and deploys the modulator at the proxy.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn new(
        program: Arc<Program>,
        handler_fn: &str,
        model: Arc<dyn CostModel>,
        proxy_builtins: BuiltinRegistry,
        receiver_builtins: BuiltinRegistry,
        config: ProxyConfig,
    ) -> Result<Self, IrError> {
        let kind = model.kind();
        let handler = PartitionedHandler::analyze(Arc::clone(&program), handler_fn, model)?;
        let reconfig = ReconfigUnit::new(Arc::clone(handler.analysis()), kind, config.trigger)
            .with_serialize_cost(config.serialize_work_per_byte);
        Ok(ProxySession {
            modulator: handler.modulator(),
            subscriber: Subscriber::new(Arc::clone(&handler), reconfig),
            receiver_ctx: ExecCtx::without_digests(&program, receiver_builtins),
            proxy_builtins,
            handler,
            program,
            source: config.source,
            uplink: config.uplink,
            proxy: config.proxy,
            downlink: config.downlink,
            receiver: config.receiver,
            serialize_work_per_byte: config.serialize_work_per_byte,
            reports: Vec::new(),
            seq: 0,
            plan_installs: 0,
            first_gen: None,
        })
    }

    /// The analyzed handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        &self.handler
    }

    /// Plan installations applied at the proxy so far.
    pub fn plan_installs(&self) -> u64 {
        self.plan_installs
    }

    /// Delivers one event built by `make_event` in the source's context.
    ///
    /// # Errors
    ///
    /// Propagates handler runtime errors.
    pub fn deliver(
        &mut self,
        make_event: impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError>,
    ) -> Result<ProxyReport, IrError> {
        self.seq += 1;
        let ser =
            |bytes: usize| -> u64 { (self.serialize_work_per_byte * bytes as f64).round() as u64 };

        // Source: build and marshal the raw event (the source knows no
        // handler code — it just ships its capture upstream).
        let gen_time = self.source.busy_until().max(self.uplink.busy_until());
        if self.first_gen.is_none() {
            self.first_gen = Some(gen_time);
        }
        let mut source_ctx = ExecCtx::without_digests(&self.program, BuiltinRegistry::new());
        let args = make_event(&mut source_ctx)?;
        let raw = marshal_values(&source_ctx.heap, &args)?;
        let uplink_bytes = raw.wire_size();
        let (_, source_done) = self.source.run(gen_time, ser(uplink_bytes));
        let (_, at_proxy) = self.uplink.transfer(source_done, uplink_bytes as u64);

        // Proxy: plan updates that have arrived take effect, then the
        // modulator runs here.
        self.plan_installs +=
            self.subscriber.install_due(at_proxy.as_nanos(), PlanReason::Reconfig);
        let mut proxy_ctx = ExecCtx::without_digests(&self.program, self.proxy_builtins.clone());
        let restored = unmarshal_values(&mut proxy_ctx.heap, &self.program.classes, &raw)?;
        let run = self.modulator.handle(&mut proxy_ctx, restored)?;
        let event =
            ModulatedEvent { seq: self.seq, continuation: run.message, samples: run.samples };
        let downlink_bytes = event.wire_size();
        let proxy_work = ser(uplink_bytes) + run.mod_work + ser(downlink_bytes);
        let (proxy_start, proxy_done) = self.proxy.run(at_proxy, proxy_work);
        let (_, at_receiver) = self.downlink.transfer(proxy_done, downlink_bytes as u64);

        // Receiver: demodulate. The third-party reconfiguration unit sees
        // both halves of the profile; its plan updates flow back to the
        // proxy over the downlink.
        let receiver = &mut self.receiver;
        let mut recv_done = at_receiver;
        let applied = self.subscriber.apply(
            &mut self.receiver_ctx,
            &event.continuation,
            event.samples,
            |demod| {
                let (recv_start, done) =
                    receiver.run(at_receiver, demod.demod_work + ser(downlink_bytes));
                recv_done = done;
                Timing {
                    mod_work: proxy_work,
                    t_mod: Some((proxy_done - proxy_start).as_secs_f64()),
                    demod_work: demod.demod_work,
                    t_demod: Some((done - recv_start).as_secs_f64()),
                }
            },
        )?;
        if let Some(proposal) = applied.proposal? {
            self.subscriber.defer(proposal, (recv_done + self.downlink.alpha).as_nanos());
        }

        let report = ProxyReport {
            seq: self.seq,
            uplink_bytes,
            downlink_bytes,
            split_pse: event.continuation.pse,
            done: recv_done,
            ret: applied.demod.ret,
        };
        self.reports.push(report.clone());
        Ok(report)
    }

    /// All reports so far.
    pub fn reports(&self) -> &[ProxyReport] {
        &self.reports
    }

    /// Average per-message makespan in milliseconds.
    pub fn avg_processing_ms(&self) -> f64 {
        match (self.first_gen, self.reports.last()) {
            (Some(first), Some(last)) if !self.reports.is_empty() => {
                (last.done - first).as_millis_f64() / self.reports.len() as f64
            }
            _ => 0.0,
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
        class Reading { n: int, data: ref }

        fn digest(r) {
            out = new Reading
            out.n = 8
            d = new byte[8]
            out.data = d
            return out
        }

        fn ingest(event) {
            ok = event instanceof Reading
            if ok == 0 goto skip
            r = (Reading) event
            g = call digest(r)
            native record(g)
            return 1
        skip:
            return 0
        }
    "#;

    fn receiver_builtins() -> BuiltinRegistry {
        let mut b = BuiltinRegistry::new();
        b.register_native("record", 1, |_, _| Ok(Value::Null));
        b
    }

    fn reading(
        program: &Arc<Program>,
        n: usize,
    ) -> impl FnOnce(&mut ExecCtx) -> Result<Vec<Value>, IrError> + '_ {
        let classes = &program.classes;
        move |ctx| {
            let class = classes.id("Reading").unwrap();
            let decl = classes.decl(class);
            let r = ctx.heap.alloc_object(classes, class);
            let d = ctx.heap.alloc_array(ElemType::Byte, n);
            ctx.heap.set_field(r, decl.field("n").unwrap(), Value::Int(n as i64))?;
            ctx.heap.set_field(r, decl.field("data").unwrap(), Value::Ref(d))?;
            Ok(vec![Value::Ref(r)])
        }
    }

    fn config() -> ProxyConfig {
        ProxyConfig {
            source: Host::new("mote", 50_000.0),
            uplink: Link::new("pan", SimTime::from_millis(2), 2_000_000.0),
            proxy: Host::new("broker", 5_000_000.0),
            downlink: Link::new("wan", SimTime::from_millis(20), 100_000.0),
            receiver: Host::new("client", 2_000_000.0),
            trigger: TriggerPolicy::Rate(1),
            serialize_work_per_byte: 0.2,
        }
    }

    #[test]
    fn proxy_modulator_customizes_the_downlink() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = ProxySession::new(
            Arc::clone(&program),
            "ingest",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(),
        )
        .unwrap();
        for _ in 0..8 {
            let r = session.deliver(reading(&program, 30_000)).unwrap();
            assert_eq!(r.ret, Some(Value::Int(1)));
        }
        let last = session.reports().last().unwrap();
        // Uplink always carries the raw 30 KB; after adaptation, the slow
        // downlink carries only the digest.
        assert!(last.uplink_bytes > 30_000);
        assert!(last.downlink_bytes < 1000, "downlink adapted: {}", last.downlink_bytes);
        assert!(session.plan_installs() >= 1);
        assert!(session.avg_processing_ms() > 0.0);
    }

    #[test]
    fn filtered_events_cross_the_downlink_almost_free() {
        let program = Arc::new(parse_program(SRC).unwrap());
        let mut session = ProxySession::new(
            Arc::clone(&program),
            "ingest",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            config(),
        )
        .unwrap();
        for _ in 0..5 {
            let r = session.deliver(|_| Ok(vec![Value::Int(7)])).unwrap();
            assert_eq!(r.ret, Some(Value::Int(0)));
        }
        let last = session.reports().last().unwrap();
        assert!(last.downlink_bytes < 100, "{}", last.downlink_bytes);
    }
}
