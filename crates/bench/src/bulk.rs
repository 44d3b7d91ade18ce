//! Bulk-TCP benchmark workload: apps and the shared multiflow topology.
//!
//! `bench_engine` and `bench_parallel` must measure the *same*
//! single-threaded workload for their events/sec numbers to be
//! comparable (scripts/perf_gate.py checks the parallel engine's
//! one-thread rate against the committed `BENCH_engine.json` baseline),
//! so the 32-flow trunk simulation lives here and both binaries call it,
//! measured by the same best-of-N [`measure`].

use mpichgq_netsim::link::{Framing, LinkCfg};
use mpichgq_netsim::net::TopoBuilder;
use mpichgq_netsim::queue::QueueCfg;
use mpichgq_netsim::NodeId;
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, Sim, SockId, TcpCfg};
use std::time::Instant;

/// The best wall-clock run of a workload.
pub struct Measurement {
    pub events: u64,
    pub wall_secs: f64,
    pub events_per_sec: f64,
}

impl Measurement {
    /// The `{"events", "wall_secs", "events_per_sec"}` object of the
    /// BENCH files (what `scripts/perf_gate.py` reads).
    pub fn json(&self) -> String {
        format!(
            "{{\"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}}}",
            self.events, self.wall_secs, self.events_per_sec
        )
    }
}

/// Run `f` `repeats` times and keep the fastest wall-clock run; every
/// repeat must process the same number of events (determinism check).
pub fn measure(repeats: usize, f: impl Fn() -> u64) -> Measurement {
    let mut best_secs = f64::INFINITY;
    let mut events = 0u64;
    for rep in 0..repeats {
        let t0 = Instant::now();
        let n = f();
        let secs = t0.elapsed().as_secs_f64();
        if rep == 0 {
            events = n;
        } else {
            assert_eq!(n, events, "event count varied across repeats");
        }
        best_secs = best_secs.min(secs);
    }
    Measurement {
        events,
        wall_secs: best_secs,
        events_per_sec: events as f64 / best_secs,
    }
}

/// Greedy bulk sender: connect, then keep the socket's send window full.
pub struct BulkTx {
    pub dst: NodeId,
    pub port: u16,
    pub total: u64,
    pub sent: u64,
    pub sock: Option<SockId>,
}

impl BulkTx {
    pub fn new(dst: NodeId, port: u16, total: u64) -> BulkTx {
        BulkTx {
            dst,
            port,
            total,
            sent: 0,
            sock: None,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        let s = self.sock.unwrap();
        while self.sent < self.total {
            let n = ctx.send(s, (self.total - self.sent).min(16 * 1024));
            self.sent += n;
            if n == 0 {
                break;
            }
        }
    }
}

impl App for BulkTx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sock =
            Some(ctx.tcp_connect(self.dst, self.port, TcpCfg::default(), DataMode::Counted));
    }
    fn on_connected(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
    fn on_writable(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
}

/// Drain-everything bulk receiver listening on `port`.
pub struct BulkRx {
    pub port: u16,
}

impl App for BulkRx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(self.port, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, s: SockId, ctx: &mut Ctx) {
        ctx.recv(s, u64::MAX);
    }
}

/// 10 GbE host-to-router edge link.
pub fn edge_link() -> LinkCfg {
    LinkCfg {
        bandwidth_bps: 10_000_000_000,
        delay: SimDelta::from_micros(10),
        framing: Framing::None,
    }
}

/// The shared OC12 trunk (20 ms) the 32 flows contend for.
pub fn oc12_trunk() -> LinkCfg {
    LinkCfg {
        bandwidth_bps: 622_080_000,
        delay: SimDelta::from_millis(20),
        framing: Framing::None,
    }
}

/// The `transport_multiflow_bulk` workload: 32 concurrent bulk TCP flows
/// sharing one high-bandwidth-delay trunk, so the engine carries a deep
/// standing population of in-flight Deliver events plus per-flow TCP
/// timers. Returns the processed-event count at `duration`.
pub fn transport_multiflow_bulk(duration: SimTime) -> u64 {
    const FLOWS: usize = 32;
    let mut b = TopoBuilder::new(0xF10E5);
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let q = QueueCfg::priority_default();
    b.link(r1, r2, oc12_trunk(), q);
    let pairs: Vec<(NodeId, NodeId)> = (0..FLOWS)
        .map(|i| {
            let src = b.host(&format!("src{i}"));
            let dst = b.host(&format!("dst{i}"));
            b.link(src, r1, edge_link(), q);
            b.link(r2, dst, edge_link(), q);
            (src, dst)
        })
        .collect();
    let mut sim = Sim::new(b.build());
    for &(src, dst) in &pairs {
        sim.spawn_app(dst, Box::new(BulkRx { port: 7000 }));
        sim.spawn_app(src, Box::new(BulkTx::new(dst, 7000, u64::MAX / 2)));
    }
    sim.run_until(duration);
    sim.net.events_processed()
}
