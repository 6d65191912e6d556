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
//!
//! Past the raw hop this is a two-host session whose sender is the
//! broker, so a [`ProxySession`] is that hop in front of a
//! [`SimSession`]: the broker reads the plan when it runs, blocks on its
//! downlink like any sender, and pays for profiling.

use std::sync::Arc;

use mpart::profile::TriggerPolicy;
use mpart::{PartitionedHandler, PseId};
use mpart_cost::CostModel;
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::marshal::{marshal_values, unmarshal_values};
use mpart_ir::{IrError, Program, Value};
use mpart_simnet::{Host, Link, SimTime};

use crate::sim::{SimConfig, SimSession};

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
    source: Host,
    uplink: Link,
    /// Broker → downlink → receiver.
    session: SimSession,
    reports: Vec<ProxyReport>,
    first_gen: Option<SimTime>,
}

impl std::fmt::Debug for ProxySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxySession")
            .field("handler", &self.handler().func_name())
            .field("messages", &self.reports.len())
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
        let downstream =
            SimConfig::new(config.proxy, config.downlink, config.receiver, config.trigger)
                .with_serialize_cost(config.serialize_work_per_byte);
        let session = SimSession::adaptive(
            Arc::clone(&program),
            handler_fn,
            model,
            proxy_builtins,
            receiver_builtins,
            downstream,
        )?;
        Ok(ProxySession {
            program,
            source: config.source,
            uplink: config.uplink,
            session,
            reports: Vec::new(),
            first_gen: None,
        })
    }

    /// The analyzed handler.
    pub fn handler(&self) -> &Arc<PartitionedHandler> {
        self.session.handler()
    }

    /// Plan installations applied at the proxy so far.
    pub fn plan_installs(&self) -> u64 {
        self.session.plan_installs()
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
        // Source: build and marshal the raw event (the source knows no
        // handler code — it just ships its capture upstream).
        let gen_time = self.source.busy_until().max(self.uplink.busy_until());
        self.first_gen.get_or_insert(gen_time);
        let mut source_ctx = ExecCtx::without_digests(&self.program, BuiltinRegistry::new());
        let args = make_event(&mut source_ctx)?;
        let raw = marshal_values(&source_ctx.heap, &args)?;
        let uplink_bytes = raw.wire_size();
        let (_, source_done) = self.source.run(gen_time, self.session.serialize_work(uplink_bytes));
        let (_, at_proxy) = self.uplink.transfer(source_done, uplink_bytes as u64);

        // Broker: unmarshal the raw event, which holds its CPU until the
        // event has arrived, then the session's sender runs the modulator.
        self.session.unmarshal_at_sender(at_proxy, uplink_bytes);
        let classes = &self.program.classes;
        let sent = self.session.deliver(|ctx| unmarshal_values(&mut ctx.heap, classes, &raw))?;
        let report = ProxyReport {
            seq: sent.seq,
            uplink_bytes,
            downlink_bytes: sent.wire_bytes,
            split_pse: sent.split_pse,
            done: sent.timing.demod_end,
            ret: sent.ret,
        };
        self.reports.push(report.clone());
        Ok(report)
    }

    /// All reports so far.
    pub fn reports(&self) -> &[ProxyReport] {
        &self.reports
    }

    /// Average per-message makespan in milliseconds, from the source's
    /// first generation to the last completion.
    pub fn avg_processing_ms(&self) -> f64 {
        match (self.first_gen, self.reports.last()) {
            (Some(first), Some(last)) => {
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
    use mpart_simnet::FaultPlan;

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
        // A fault plan, even one that injects nothing, puts the downlink
        // on the supervised wire; the raw hop must hold on both wires.
        for plan in [None, Some(FaultPlan::new(7))] {
            let mut cfg = config();
            if let Some(plan) = plan.clone() {
                cfg.downlink = cfg.downlink.with_fault_plan(plan);
            }
            let mut session = ProxySession::new(
                Arc::clone(&program),
                "ingest",
                Arc::new(DataSizeModel::new()),
                BuiltinRegistry::new(),
                receiver_builtins(),
                cfg,
            )
            .unwrap();
            let first = session.deliver(reading(&program, 30_000)).unwrap();
            assert_eq!(first.ret, Some(Value::Int(1)));
            // Replayed on idle copies of the hosts and links: the source's
            // marshal, the raw uplink hop, the broker's unmarshal and
            // marshal, the downlink and the client's unmarshal. Message 0
            // can complete no sooner; only the modulator and demodulator
            // runs come on top.
            let mut hops = config();
            let work = |bytes: usize| (0.2 * bytes as f64).round() as u64;
            let (_, sourced) = hops.source.run(SimTime::ZERO, work(first.uplink_bytes));
            let (_, at_broker) = hops.uplink.transfer(sourced, first.uplink_bytes as u64);
            let (_, unmarshalled) = hops.proxy.run(at_broker, work(first.uplink_bytes));
            let (_, marshalled) = hops.proxy.run(unmarshalled, work(first.downlink_bytes));
            let (_, at_client) = hops.downlink.transfer(marshalled, first.downlink_bytes as u64);
            let (_, floor) = hops.receiver.run(at_client, work(first.downlink_bytes));
            assert!(
                first.done >= floor,
                "{plan:?}: message 0 done at {:?} < {floor:?}",
                first.done
            );
            for _ in 1..8 {
                let r = session.deliver(reading(&program, 30_000)).unwrap();
                assert_eq!(r.ret, Some(Value::Int(1)));
            }
            let last = session.reports().last().unwrap();
            // Uplink always carries the raw 30 KB; after adaptation, the
            // slow downlink carries only the digest.
            assert!(last.uplink_bytes > 30_000);
            assert!(last.downlink_bytes < 1000, "downlink adapted: {}", last.downlink_bytes);
            assert!(session.plan_installs() >= 1);
            assert!(session.avg_processing_ms() > 0.0);
        }
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

    #[test]
    fn a_proxy_with_a_free_uplink_is_a_sim_session() {
        // A source and uplink that cost nothing hand every raw event to
        // the broker at time zero, as a sim sender would generate it; past
        // that hop, both must compute the same session.
        let program = Arc::new(parse_program(SRC).unwrap());
        let broker = || Host::new("broker", 5_000_000.0);
        let wan = || Link::new("wan", SimTime::from_millis(20), 100_000.0);
        // Fast enough that the in-flight window never binds.
        let client = || Host::new("client", 2_000_000.0);
        let mut proxy = ProxySession::new(
            Arc::clone(&program),
            "ingest",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            ProxyConfig {
                source: Host::new("free-source", 1.0),
                uplink: Link::new("free-uplink", SimTime::ZERO, f64::INFINITY),
                proxy: broker(),
                downlink: wan(),
                receiver: client(),
                trigger: TriggerPolicy::Rate(1),
                serialize_work_per_byte: 0.0,
            },
        )
        .unwrap();
        let mut sim = SimSession::adaptive(
            Arc::clone(&program),
            "ingest",
            Arc::new(DataSizeModel::new()),
            BuiltinRegistry::new(),
            receiver_builtins(),
            SimConfig::new(broker(), wan(), client(), TriggerPolicy::Rate(1)),
        )
        .unwrap();
        for _ in 0..8 {
            let proxied = proxy.deliver(reading(&program, 30_000)).unwrap();
            let direct = sim.deliver(reading(&program, 30_000)).unwrap();
            let seq = proxied.seq;
            assert_eq!(proxied.split_pse, direct.split_pse, "split of message {seq}");
            assert_eq!(proxied.downlink_bytes, direct.wire_bytes, "bytes of message {seq}");
            assert_eq!(proxied.ret, direct.ret, "return of message {seq}");
            assert_eq!(proxied.done, direct.timing.demod_end, "completion of message {seq}");
        }
        assert!(sim.plan_installs() >= 1, "the session adapted, so the comparison covers a switch");
    }
}
