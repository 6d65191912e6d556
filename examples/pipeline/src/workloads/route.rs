//! `route_tcp`: a `Router` delivering to sessions on two loopback
//! `NodeServer`s through `TcpNode` clients and the node text protocol.

use std::sync::Arc;
use std::time::Instant;

use method_partitioning::analysis::{AnalysisCache, DEFAULT_CACHE_CAPACITY};
use method_partitioning::core::journal::SessionJournal;
use method_partitioning::core::router::{Router, RouterConfig, SessionSpec};
use method_partitioning::core::session::SessionConfig;
use method_partitioning::jecho::node::{NodeServer, TcpNode};
use method_partitioning::jecho::RetryPolicy;

use super::{err, Census, Rep, Res, Tenths};
use crate::fixture::Fixture;
use crate::relay::{Framing, Relay};
use crate::spec::Sizes;
use crate::trace::{Tracer, NO_ENVELOPE};

const NODES: usize = 2;

struct Cluster {
    router: Router,
    servers: Vec<NodeServer>,
    relays: Vec<Relay>,
    journal: Arc<SessionJournal>,
    gids: Vec<u64>,
    /// Envelopes applied per session.
    applied: Vec<u64>,
    sent: u64,
    wrong: u64,
    wire_bytes: u64,
}

fn open(fx: &Fixture, sizes: &Sizes, via_relay: bool, tracer: &mut Tracer) -> Res<Cluster> {
    let journal = Arc::new(SessionJournal::in_memory());
    let cache = Arc::new(AnalysisCache::new(DEFAULT_CACHE_CAPACITY));
    let config = SessionConfig::default().with_workers(1).with_journal(Arc::clone(&journal));
    let mut router = Router::new(RouterConfig::default(), Arc::clone(&journal), Arc::clone(&cache));
    let mut servers = Vec::with_capacity(NODES);
    let mut relays = Vec::new();
    for n in 0..NODES {
        let server = NodeServer::spawn(
            format!("node-{n}"),
            Arc::clone(&fx.program),
            config.clone(),
            Arc::clone(&cache),
            fx.sender_builtins.clone(),
            fx.receiver_builtins.clone(),
        )
        .map_err(err("spawn node"))?;
        let mut port = server.port();
        if via_relay {
            let relay = Relay::spawn(port, Framing::Lines).map_err(err("relay"))?;
            port = relay.port();
            relays.push(relay);
        }
        router.add_node(Box::new(TcpNode::new(format!("node-{n}"), port, RetryPolicy::default())));
        servers.push(server);
    }
    let spec = SessionSpec {
        program: Arc::clone(&fx.program),
        func: fx.func.to_string(),
        model: Arc::clone(&fx.model),
        sender_builtins: fx.sender_builtins.clone(),
        receiver_builtins: fx.receiver_builtins.clone(),
    };
    let mut gids = Vec::with_capacity(sizes.sessions);
    for _ in 0..sizes.sessions {
        let spec = spec.clone();
        let gid = tracer
            .time("session.open", "", NO_ENVELOPE, || router.open_session(spec))
            .map_err(err("open_session"))?;
        gids.push(gid);
    }
    let applied = vec![0; gids.len()];
    Ok(Cluster {
        router,
        servers,
        relays,
        journal,
        gids,
        applied,
        sent: 0,
        wrong: 0,
        wire_bytes: 0,
    })
}

impl Cluster {
    /// One routed delivery, closed loop, round-robin over the sessions.
    fn deliver(&mut self, fx: &Fixture, tracer: &mut Tracer) -> Res<()> {
        let i = self.sent;
        let s = (i % self.gids.len() as u64) as usize;
        let args = fx.events[i as usize % fx.events.len()].scalar_args();
        let (router, gid) = (&mut self.router, self.gids[s]);
        let outcome = tracer
            .time("router.deliver", "", i, || router.deliver(gid, args))
            .map_err(err("deliver"))?;
        self.applied[s] += 1;
        if outcome.seq != self.applied[s] || !fx.matches(i, &outcome.ret) {
            self.wrong += 1;
        }
        self.wire_bytes += outcome.wire_bytes as u64;
        self.sent += 1;
        Ok(())
    }

    /// Closes every session, checks the journaled watermarks, stops the
    /// nodes; returns the failed-envelope count.
    fn close(mut self) -> Res<u64> {
        let snapshots = self.journal.replay().map_err(err("replay"))?;
        let mut failed = self.wrong;
        for (s, gid) in self.gids.iter().enumerate() {
            if snapshots.get(gid).map(|snap| snap.watermark) != Some(self.applied[s]) {
                failed += 1;
            }
            let watermark = self.router.close_session(*gid).map_err(err("close_session"))?;
            failed += watermark.abs_diff(self.applied[s]);
        }
        let processed: u64 = self.servers.iter().map(NodeServer::processed).sum();
        failed += processed.abs_diff(self.sent);
        // Dropping the router closes the client connections, which ends
        // the servers' connection threads and the relays' pumps.
        drop(self.router);
        for server in self.servers {
            server.shutdown();
        }
        for relay in self.relays {
            relay.shutdown();
        }
        Ok(failed)
    }
}

pub fn rep(fx: &Fixture, sizes: &Sizes, started: Instant, tracer: &mut Tracer) -> Res<Rep> {
    let mut cluster = open(fx, sizes, false, tracer)?;
    let mut quiet = Tracer::new(false);
    for _ in 0..sizes.warmup {
        cluster.deliver(fx, &mut quiet)?;
    }
    let mut rep = Rep { setup_s: started.elapsed().as_secs_f64(), ..Rep::default() };

    let timed = Instant::now();
    let mut tenths = Tenths::start(sizes.latency_frames);
    for n in 0..sizes.latency_frames {
        tenths.mark(n);
        let t = Instant::now();
        cluster.deliver(fx, tracer)?;
        rep.latencies_ns.push(t.elapsed().as_nanos() as u64);
    }
    rep.late_over_early = tenths.finish();
    rep.timed_s = timed.elapsed().as_secs_f64();
    rep.timed_msgs = sizes.latency_frames;

    let router = &mut cluster.router;
    tracer
        .time("router.heartbeat", "", NO_ENVELOPE, || router.heartbeat())
        .map_err(err("heartbeat"))?;
    let lines = cluster.journal.len();
    rep.attempted = cluster.sent;
    rep.wire_bytes = cluster.wire_bytes;
    rep.wire_msgs = cluster.sent;
    rep.put("journal.lines_retained", lines as f64);
    rep.put("journal.records_per_msg", lines as f64 / cluster.sent as f64);
    rep.put(
        "obs.trace_events_per_msg",
        cluster.router.obs().trace().recorded() as f64 / cluster.sent as f64,
    );
    rep.failed = cluster.close()?;
    Ok(rep)
}

/// A short closed-loop run with a counting relay in front of each node:
/// the exact request and reply bytes per routed delivery.
pub fn census(fx: &Fixture, sizes: &Sizes) -> Res<Census> {
    let mut quiet = Tracer::new(false);
    let mut cluster = open(fx, sizes, true, &mut quiet)?;
    let snapshot = |cluster: &Cluster| {
        cluster
            .relays
            .iter()
            .map(|r| r.counts().snapshot())
            .fold((0, 0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3))
    };
    let before = snapshot(&cluster);
    let msgs = (sizes.latency_frames / 4).clamp(sizes.sessions as u64, 1024);
    for _ in 0..msgs {
        cluster.deliver(fx, &mut quiet)?;
    }
    let after = snapshot(&cluster);
    let failed = cluster.close()?;
    if failed != 0 {
        return Err(format!("census: {failed} envelopes failed"));
    }
    Ok(Census {
        msgs,
        up_bytes: after.0 - before.0,
        up_units: after.1 - before.1,
        down_bytes: after.2 - before.2,
        down_units: after.3 - before.3,
    })
}
