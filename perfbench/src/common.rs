//! What one repetition of a workload returns, and the per-layer counters
//! every simulation workload reads off the public `Net` / `Stack` state
//! once its run has ended.

use crate::layers::Upcalls;
use mpichgq_netsim::{Net, NetHandler};
use mpichgq_sim::{SimDelta, SimTime};
use mpichgq_tcp::Stack;
use std::collections::BTreeMap;
use std::time::Instant;

/// How a repetition is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: only the end-to-end clocks run.
    Plain,
    /// Every layer boundary is timed.
    Traced,
    /// Figure 9 with observability disarmed, untraced: the other half of
    /// the `obs.overhead_s` pair.
    Disarmed,
    /// The sharded WAN world that `fig9_observed`'s traced pass runs to
    /// measure the shard layer, on `threads` workers, traced or not.
    Sharded { threads: usize, traced: bool },
}

/// The simulated outcome of one repetition. Two runs of the same seed
/// must produce equal outcomes, whatever their mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub events: u64,
    /// Workload results, in a fixed order.
    pub result: Vec<(&'static str, f64)>,
}

/// Per-layer values of one repetition, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One repetition: set-up, the measured run, and what it produced.
#[derive(Debug)]
pub struct Rep {
    /// Building topology, stack, GARA book and job.
    pub setup_s: f64,
    /// Host seconds of the measured run: from the first event through
    /// artifact export, or the client's ops on `gara_churn`.
    pub run_s: f64,
    /// Host nanoseconds per workload step (see the workload's docs).
    pub steps_ns: Vec<u64>,
    pub out: Outcome,
    /// Filled in traced repetitions only.
    pub layers: Layers,
}

/// Engine, network and TCP counters of a finished run. Counts repeat
/// exactly for a given seed.
pub fn net_counts(net: &Net, stack: &Stack, l: &mut Layers) {
    let events = net.events_processed() as f64;
    l.insert("sim.events", events);
    if let Some(cs) = net.scheduler_stats() {
        l.insert("sim.calendar.scan_steps", cs.scan_steps as f64);
        l.insert("sim.calendar.slow_pushes", cs.slow_pushes as f64);
        l.insert("sim.calendar.rebuilds", cs.rebuilds as f64);
    }
    let mut tx = 0u64;
    let mut enq = 0u64;
    for id in net.chan_ids() {
        tx += net.chan(id).tx_packets;
        let q = net.queue_stats(id);
        enq += q.enq_be + q.enq_ef + q.enq_af;
    }
    let drops = net.drops.queue_full;
    l.insert("netsim.pkts_tx", tx as f64);
    l.insert("netsim.queue.enq", enq as f64);
    l.insert("netsim.queue.drops", drops as f64);
    l.insert("netsim.queue.drop_ratio", ratio(drops, enq + drops));
    l.insert("netsim.policer.drops", net.drops.policed as f64);
    let marked: u64 = (0..net.node_count())
        .map(|n| {
            net.node(mpichgq_netsim::NodeId(n as u32))
                .classifier
                .stats()
                .marked_ef
        })
        .sum();
    l.insert("netsim.classifier.marked_ef", marked as f64);
    let (mut segs, mut rtx, mut rtos) = (0u64, 0u64, 0u64);
    for s in stack.tcp_sock_ids() {
        if let Some(c) = stack.conn_stats(s) {
            segs += c.segs_sent;
            rtx += c.rtx_segs;
            rtos += c.rtos;
        }
    }
    l.insert("tcp.segs_sent", segs as f64);
    l.insert("tcp.rtx_ratio", ratio(rtx, segs));
    l.insert("tcp.rtos", rtos as f64);
}

/// Upcall times and counts, plus netsim's own time: the traced
/// `run_until` seconds minus the upcalls made from inside it.
pub fn upcall_layers(up: &Upcalls, run_until_s: f64, l: &mut Layers) {
    l.insert("netsim.self_s", run_until_s - up.total_ns() as f64 * 1e-9);
    l.insert("tcp.deliver_s", up.deliver.secs());
    l.insert("tcp.deliver.n", up.deliver.n as f64);
    l.insert("tcp.timer_s", up.host_timer.secs());
    l.insert("tcp.timer.n", up.host_timer.n as f64);
    l.insert("dsrt.cpu_done_s", up.cpu_done.secs());
    l.insert("dsrt.cpu_done.n", up.cpu_done.n as f64);
    l.insert("gara.control_s", up.control.secs());
    l.insert("gara.control.n", up.control.n as f64);
    l.insert("obs.sample_s", up.timeline_sample.secs());
    l.insert("obs.sample.n", up.timeline_sample.n as f64);
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank quantile of nanosecond samples, in microseconds.
pub fn quantile_us(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64 / 1e3
}

/// Advance `net` to `end` in `step` slices, timing each slice.
pub fn run_sliced<H: NetHandler>(
    net: &mut Net,
    h: &mut H,
    end: SimTime,
    step: SimDelta,
) -> Vec<u64> {
    let mut steps = Vec::with_capacity((end.as_nanos() / step.as_nanos()) as usize + 1);
    let mut t = net.now();
    while t < end {
        t = (t + step).min(end);
        let s = Instant::now();
        net.run_until(h, t);
        steps.push(s.elapsed().as_nanos() as u64);
    }
    steps
}
