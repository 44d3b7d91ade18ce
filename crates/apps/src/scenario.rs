//! Scenario assembly: the GARNET laboratory with GARA installed, scripted
//! mid-run actions (contention starting, reservations being made — the
//! timelines of Figures 8 and 9), and the standard contention source.

use crate::traffic::{UdpBlaster, UdpSink};
use mpichgq_gara::{install, Gara};
use mpichgq_netsim::{Garnet, GarnetCfg, Net, NodeId};
use mpichgq_sim::{SimDelta, SimTime, ThroughputMeter};
use mpichgq_tcp::{Controller, Sim, Stack};
use std::cell::RefCell;
use std::rc::Rc;

/// Worker-thread count requested via the `MPICHGQ_THREADS` environment
/// variable (default 1). Lab experiments honor it by driving the
/// simulation through the parallel engine's windowed schedule, so CI can
/// diff a figure's CSV at 1 vs N threads byte-for-byte.
pub fn env_threads() -> usize {
    std::env::var("MPICHGQ_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Run `f` against the GARA broker installed on `stack` — how scripted
/// actions, which see only the network and the stack, reach it.
pub fn with_gara<R>(
    stack: &mut Stack,
    net: &mut Net,
    f: impl FnOnce(&mut Gara, &mut Net) -> R,
) -> R {
    let mut g = stack
        .take_service::<Gara>()
        .expect("GARA service installed");
    let r = f(&mut g, net);
    stack.put_service_box(g);
    r
}

/// Window width for [`run_env_windowed`] when `MPICHGQ_THREADS > 1`.
const ENV_WINDOW_MS: u64 = 10;

/// Advance `sim` to `t`, honoring `MPICHGQ_THREADS`: above one thread the
/// run uses the parallel engine's lock-step lookahead windows — lab
/// topologies are a single shard, so the event order (and thus every CSV
/// and metric) must be bit-identical to the plain path. That equality is
/// what the CI `parallel-smoke` job asserts.
pub fn run_env_windowed(sim: &mut Sim, t: SimTime) {
    if env_threads() > 1 {
        mpichgq_netsim::run_windowed(
            &mut sim.net,
            &mut sim.stack,
            SimDelta::from_millis(ENV_WINDOW_MS),
            t,
        );
    } else {
        sim.run_until(t);
    }
}

/// One-shot actions scheduled at absolute times.
type Action = Box<dyn FnOnce(&mut Net, &mut Stack)>;

struct Script {
    actions: Vec<Option<Action>>,
}

impl Controller for Script {
    fn on_control(&mut self, payload: u64, net: &mut Net, stack: &mut Stack) {
        if let Some(f) = self
            .actions
            .get_mut(payload as usize)
            .and_then(Option::take)
        {
            f(net, stack);
        }
    }
}

/// Collects `(time, action)` pairs, then installs them as a controller.
pub struct Scheduler {
    entries: Vec<(SimTime, Action)>,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler {
            entries: Vec::new(),
        }
    }

    /// Run `f` at simulated time `t`.
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Net, &mut Stack) + 'static) {
        self.entries.push((t, Box::new(f)));
    }

    pub fn install(self, sim: &mut Sim) {
        let times: Vec<SimTime> = self.entries.iter().map(|(t, _)| *t).collect();
        let actions = self.entries.into_iter().map(|(_, a)| Some(a)).collect();
        let id = sim.stack.add_controller(Box::new(Script { actions }));
        for (i, t) in times.into_iter().enumerate() {
            sim.stack.schedule_control(&mut sim.net, id, t, i as u64);
        }
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// The assembled testbed: GARNET topology + GARA + helpers.
pub struct GarnetLab {
    pub sim: Sim,
    pub premium_src: NodeId,
    pub premium_dst: NodeId,
    pub competitive_src: NodeId,
    pub competitive_dst: NodeId,
    pub routers: [NodeId; 3],
    contention_meter: Option<Rc<RefCell<ThroughputMeter>>>,
}

impl GarnetLab {
    /// Build the lab; GARA manages `reservable_fraction` of each trunk.
    pub fn new(cfg: GarnetCfg, reservable_fraction: f64) -> GarnetLab {
        let g = Garnet::build(cfg);
        let (psrc, pdst, csrc, cdst, routers) = (
            g.premium_src,
            g.premium_dst,
            g.competitive_src,
            g.competitive_dst,
            g.routers,
        );
        let mut sim = Sim::new(g.net);
        let mut gara = Gara::new();
        gara.manage_core_links(&sim.net, reservable_fraction);
        install(&mut sim.stack, gara);
        GarnetLab {
            sim,
            premium_src: psrc,
            premium_dst: pdst,
            competitive_src: csrc,
            competitive_dst: cdst,
            routers,
            contention_meter: None,
        }
    }

    /// Run `f` with the GARA service and the network.
    pub fn with_gara<R>(&mut self, f: impl FnOnce(&mut Gara, &mut Net) -> R) -> R {
        with_gara(&mut self.sim.stack, &mut self.sim.net, f)
    }

    /// Start the paper's UDP contention generator between the competitive
    /// hosts, active over `[start, stop)` at `rate_bps` offered load.
    pub fn add_contention(&mut self, rate_bps: u64, start: SimTime, stop: SimTime) {
        let (sink, meter) = UdpSink::new(20_000, SimDelta::from_secs(1));
        self.contention_meter = Some(meter);
        let cdst = self.competitive_dst;
        let csrc = self.competitive_src;
        self.sim.spawn_app(cdst, Box::new(sink));
        let blaster = UdpBlaster::with_rate(cdst, 20_000, 1472, rate_bps).window(start, stop);
        self.sim.spawn_app(csrc, Box::new(blaster));
    }

    /// Contention in the reverse trunk direction (loads the pong path of
    /// the ping-pong experiment as heavily as the ping path).
    pub fn add_contention_reverse(&mut self, rate_bps: u64, start: SimTime, stop: SimTime) {
        let (sink, _meter) = UdpSink::new(20_001, SimDelta::from_secs(1));
        let csrc = self.competitive_src;
        let cdst = self.competitive_dst;
        self.sim.spawn_app(csrc, Box::new(sink));
        let blaster = UdpBlaster::with_rate(csrc, 20_001, 1472, rate_bps).window(start, stop);
        self.sim.spawn_app(cdst, Box::new(blaster));
    }

    /// Bytes the contention sink has received (sanity checks).
    pub fn contention_delivered(&self) -> u64 {
        self.contention_meter
            .as_ref()
            .map(|m| m.borrow().total_bytes())
            .unwrap_or(0)
    }

    pub fn run_until(&mut self, t: SimTime) {
        run_env_windowed(&mut self.sim, t);
    }
}

/// The §3 setting: two multiprocessor sites joined by a wide-area VC.
/// One rank per host; ranks `0..n` live at site A, `n..2n` at site B.
pub struct TwoSites {
    pub sim: Sim,
    pub site_a: Vec<NodeId>,
    pub site_b: Vec<NodeId>,
    pub router_a: NodeId,
    pub router_b: NodeId,
}

impl TwoSites {
    /// Build two sites of `n` hosts around a WAN VC of `wan_bps` /
    /// `wan_delay`, with GARA managing `reservable_fraction` of the VC.
    pub fn build(n: usize, wan_bps: u64, wan_delay: SimTime, reservable_fraction: f64) -> TwoSites {
        use mpichgq_netsim::{LinkCfg, QueueCfg, TopoBuilder};
        let mut b = TopoBuilder::new(0x517E5);
        let site_a: Vec<NodeId> = (0..n).map(|i| b.host(&format!("a{i}"))).collect();
        let router_a = b.router("site-a-edge");
        let router_b = b.router("site-b-edge");
        let site_b: Vec<NodeId> = (0..n).map(|i| b.host(&format!("b{i}"))).collect();
        // Fast intra-site interconnect.
        let access = LinkCfg::fast_ethernet(SimDelta::from_micros(20));
        for &h in &site_a {
            b.link(h, router_a, access, QueueCfg::priority_default());
        }
        for &h in &site_b {
            b.link(h, router_b, access, QueueCfg::priority_default());
        }
        let wan = LinkCfg::atm_vc(wan_bps, SimDelta::from_nanos(wan_delay.as_nanos()));
        b.link(router_a, router_b, wan, QueueCfg::priority_default());
        let mut sim = Sim::new(b.build());
        let mut gara = Gara::new();
        gara.manage_core_links(&sim.net, reservable_fraction);
        install(&mut sim.stack, gara);
        TwoSites {
            sim,
            site_a,
            site_b,
            router_a,
            router_b,
        }
    }

    /// Rank-ordered host list for a job spanning both sites.
    pub fn hosts(&self) -> Vec<NodeId> {
        self.site_a
            .iter()
            .chain(self.site_b.iter())
            .copied()
            .collect()
    }
}
