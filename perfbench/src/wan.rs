//! The sharded WAN world `fig9_observed`'s traced pass runs to measure
//! the shard layer: the legacy `sharded_multiflow_4x` world — four trunk
//! groups of 8 bulk Reno flows each, joined in a line by 20 ms OC12 WAN
//! links, with one cross-group flow per WAN hop — split by
//! `Partition::by_min_delay` and run through `run_partitioned` on one or
//! two worker threads. The seed staggers every flow's connect time within
//! 1 ms; seed 0 starts them all at once, as the legacy run does.

use crate::common::{Layers, Outcome, Rep};
use crate::layers::{Timed, Upcalls};
use mpichgq_bench::bulk::{edge_link, oc12_trunk};
use mpichgq_netsim::net::TopoBuilder;
use mpichgq_netsim::queue::QueueCfg;
use mpichgq_netsim::{run_partitioned, LinkCfg, Net, NodeId, Partition};
use mpichgq_sim::{SchedulerKind, SimDelta, SimRng, SimTime};
use mpichgq_tcp::{App, Ctx, DataMode, SockId, Stack, TcpCfg};
use std::sync::Mutex;
use std::time::Instant;

const GROUPS: usize = 4;
const LOCAL_FLOWS: usize = 8;
/// Worker threads of the parallel run; the reference run uses one.
pub const THREADS: usize = 2;
/// Simulated length of one repetition.
pub const SIM_END: SimTime = SimTime::from_millis(1_000);

/// Latest staggered connect time.
const MAX_STAGGER_US: u64 = 1_000;

/// Greedy bulk sender that connects `start` after launch (at once when
/// zero) and then keeps its send buffer full.
struct BulkTx {
    dst: NodeId,
    port: u16,
    start: SimDelta,
    sock: Option<SockId>,
}

impl BulkTx {
    fn new(dst: NodeId, port: u16, start: SimDelta) -> BulkTx {
        BulkTx {
            dst,
            port,
            start,
            sock: None,
        }
    }

    fn connect(&mut self, ctx: &mut Ctx) {
        let s = ctx.tcp_connect(self.dst, self.port, TcpCfg::default(), DataMode::Counted);
        self.sock = Some(s);
    }

    fn pump(&mut self, ctx: &mut Ctx) {
        let s = self.sock.expect("connected before writable");
        while ctx.send(s, 16 * 1024) > 0 {}
    }
}

impl App for BulkTx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.start.is_zero() {
            self.connect(ctx);
        } else {
            ctx.set_timer(self.start, 0);
        }
    }
    fn on_timer(&mut self, _token: u32, ctx: &mut Ctx) {
        self.connect(ctx);
    }
    fn on_connected(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
    fn on_writable(&mut self, _s: SockId, ctx: &mut Ctx) {
        self.pump(ctx);
    }
}

/// Bulk receiver that drains every byte on `port`; delivery is read off
/// the registry.
struct BulkRx {
    port: u16,
}

impl App for BulkRx {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.tcp_listen(self.port, TcpCfg::default(), DataMode::Counted);
    }
    fn on_readable(&mut self, s: SockId, ctx: &mut Ctx) {
        ctx.recv(s, u64::MAX);
    }
}

/// Connect delay of each of `n` flows: none for seed 0, otherwise drawn
/// uniformly from `[0, MAX_STAGGER_US]` microseconds.
fn stagger(seed: u64, label: &str, n: usize) -> Vec<SimDelta> {
    let mut rng = SimRng::new(seed).fork_labeled(label);
    (0..n)
        .map(|_| match seed {
            0 => SimDelta::ZERO,
            _ => SimDelta::from_micros(rng.below(MAX_STAGGER_US + 1)),
        })
        .collect()
}

struct Group {
    local: Vec<(NodeId, NodeId)>,
    cross_src: NodeId,
    cross_dst: NodeId,
}

/// The four-group topology. Every call builds the identical world, which
/// is what lets each shard worker build its own copy.
fn topo() -> (TopoBuilder, Vec<Group>) {
    let mut b = TopoBuilder::new(0x5CA1E);
    b.scheduler(SchedulerKind::Calendar);
    let q = QueueCfg::priority_default();
    let intra_trunk = LinkCfg {
        delay: SimDelta::from_millis(2),
        ..oc12_trunk()
    };
    let mut groups = Vec::with_capacity(GROUPS);
    let mut prev_r2: Option<NodeId> = None;
    for g in 0..GROUPS {
        let r1 = b.router(&format!("g{g}-r1"));
        let r2 = b.router(&format!("g{g}-r2"));
        b.link(r1, r2, intra_trunk, q);
        if let Some(p) = prev_r2 {
            b.link(p, r1, oc12_trunk(), q);
        }
        prev_r2 = Some(r2);
        let local = (0..LOCAL_FLOWS)
            .map(|i| {
                let src = b.host(&format!("g{g}-src{i}"));
                let dst = b.host(&format!("g{g}-dst{i}"));
                b.link(src, r1, edge_link(), q);
                b.link(r2, dst, edge_link(), q);
                (src, dst)
            })
            .collect();
        let cross_src = b.host(&format!("g{g}-xsrc"));
        let cross_dst = b.host(&format!("g{g}-xdst"));
        b.link(cross_src, r2, edge_link(), q);
        b.link(cross_dst, r1, edge_link(), q);
        groups.push(Group {
            local,
            cross_src,
            cross_dst,
        });
    }
    (b, groups)
}

/// One shard's world: the full topology, apps only on hosts it owns.
fn build_shard(shard: u32, part: &Partition, seed: u64) -> (Net, Stack) {
    let (b, groups) = topo();
    let mut net = b.build();
    let mut stack = Stack::new();
    let owned = |n: NodeId| part.shard_of(n) == shard;
    let mut starts = stagger(seed, "wan", GROUPS * (LOCAL_FLOWS + 1)).into_iter();
    for (g, grp) in groups.iter().enumerate() {
        for &(src, dst) in &grp.local {
            let start = starts.next().expect("one start per flow");
            if owned(dst) {
                stack.spawn_app(&mut net, dst, Box::new(BulkRx { port: 7000 }));
            }
            if owned(src) {
                stack.spawn_app(&mut net, src, Box::new(BulkTx::new(dst, 7000, start)));
            }
        }
        let start = starts.next().expect("one start per flow");
        if g + 1 < groups.len() {
            let dst = groups[g + 1].cross_dst;
            if owned(dst) {
                stack.spawn_app(&mut net, dst, Box::new(BulkRx { port: 7100 }));
            }
            if owned(grp.cross_src) {
                let tx = BulkTx::new(dst, 7100, start);
                stack.spawn_app(&mut net, grp.cross_src, Box::new(tx));
            }
        }
    }
    (net, stack)
}

/// What one shard hands back from its worker.
struct ShardOut {
    events: u64,
    fingerprint: u64,
    delivered: u64,
    up: Upcalls,
}

/// One run of the sharded world on `threads` workers. Traced, every
/// upcall is timed, which the handler imbalance needs.
pub fn rep(seed: u64, threads: usize, traced: bool) -> Rep {
    let t0 = Instant::now();
    let part = Partition::by_min_delay(&topo().0, SimDelta::from_millis(10))
        .expect("the WAN links give a positive-delay cut");
    let partition_s = t0.elapsed().as_secs_f64();

    let shards = part.shards() as usize;
    let build_s: Vec<Mutex<f64>> = (0..shards).map(|_| Mutex::new(0.0)).collect();
    let t_run = Instant::now();
    let outs = run_partitioned(
        &part,
        threads,
        SIM_END,
        |shard| {
            let t = Instant::now();
            let (net, stack) = build_shard(shard, &part, seed);
            let h = Timed::new(Box::new(stack), traced);
            *build_s[shard as usize].lock().expect("no worker panicked") =
                t.elapsed().as_secs_f64();
            (net, h)
        },
        |_, net, h| ShardOut {
            events: net.events_processed(),
            fingerprint: net.state_fingerprint(),
            delivered: net
                .obs
                .metrics
                .counter_value("net.pkts.delivered")
                .unwrap_or(0),
            up: h.up,
        },
    );
    let total_s = t_run.elapsed().as_secs_f64();
    let build_s: Vec<f64> = build_s
        .into_iter()
        .map(|m| m.into_inner().expect("no worker panicked"))
        .collect();
    // Shard i is built on worker i % threads before that worker's first
    // window; the run starts once the slowest worker has built its shards.
    let worker_build_s = (0..threads)
        .map(|w| build_s.iter().skip(w).step_by(threads).sum::<f64>())
        .fold(0.0, f64::max);
    let run_s = total_s - worker_build_s;

    // FNV-1a over the per-shard fingerprints, in shard order.
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for o in &outs {
        for b in o.fingerprint.to_le_bytes() {
            fingerprint ^= b as u64;
            fingerprint = fingerprint.wrapping_mul(0x100_0000_01b3);
        }
    }
    let events: u64 = outs.iter().map(|o| o.events).sum();
    let delivered: u64 = outs.iter().map(|o| o.delivered).sum();

    let mut layers = Layers::new();
    let evs: Vec<f64> = outs.iter().map(|o| o.events as f64).collect();
    layers.insert("shard.events_imbalance", max_over_mean(&evs));
    if traced {
        let handler: Vec<f64> = outs.iter().map(|o| o.up.total_ns() as f64).collect();
        layers.insert("shard.handler_s_imbalance", max_over_mean(&handler));
    }
    Rep {
        setup_s: partition_s + build_s.iter().sum::<f64>(),
        run_s,
        steps_ns: Vec::new(),
        out: Outcome {
            fingerprint,
            events,
            result: vec![("pkts_delivered", delivered as f64)],
        },
        layers,
    }
}

fn max_over_mean(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = v.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Seed-independent sanity: every shard's flows moved data.
pub fn sane(out: &Outcome) -> Result<(), String> {
    let pkts = out.result[0].1;
    // Four trunks at OC12 for the whole run carry about 50k packets each;
    // a third of that in total means flows in several groups ran.
    if pkts > 60_000.0 {
        Ok(())
    } else {
        Err(format!(
            "the sharded WAN world delivered only {pkts} packets"
        ))
    }
}
