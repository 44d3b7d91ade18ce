//! `gara_churn`: the legacy `broker_churn` loop — one closed-loop
//! client drives the seeded `mpichgq_qcheck::draw_gara_op` mix (reserve /
//! modify / cancel / revoke) straight at a full `Gara` broker, issuing
//! each op when the previous one returns. Grants install enforcement
//! (edge policer rules, source shapers); cancels and revokes remove it.
//! As in the legacy loop, no packet moves and the simulated clock stays
//! at zero: this measures the control plane.
//!
//! Set-up builds the `broker_churn` topology (8 core routers in a line,
//! 16 hosts, GARA managing 70% of each 40 Mb/s trunk) and pre-books a
//! standing population of advance reservations hours ahead, so every
//! admission searches slot tables of realistic depth. The op stream is
//! drawn from its own RNG fork, so it is the legacy stream whatever the
//! book holds; input 0 of seed 0 draws the legacy seed's stream.
//!
//! A step is one `Gara::reserve` call: the admission latency.

use crate::common::{quantile_us, Layers, Mode, Outcome, Rep};
use mpichgq_gara::{Gara, NetworkRequest, Request, ResvId, StartSpec};
use mpichgq_netsim::{
    DepthRule, LinkCfg, Net, NodeId, PolicingAction, Proto, QueueCfg, TopoBuilder,
};
use mpichgq_qcheck::{draw_gara_op, GaraOp};
use mpichgq_sim::{SimDelta, SimRng, SimTime};
use std::time::Instant;

const ROUTERS: usize = 8;
const HOSTS: usize = 16;
/// The seed `bench_gara` runs `broker_churn` with.
const LEGACY_SEED: u64 = 0x6A7A;
/// Client ops per repetition, as many as a full `broker_churn` run.
pub const OPS: u64 = 400_000;
/// Advance reservations booked during set-up.
pub const STANDING: u64 = 4_000;

fn counter(net: &Net, name: &str) -> f64 {
    net.obs.metrics.counter_value(name).unwrap_or(0) as f64
}

fn network(src: NodeId, dst: NodeId, proto: Proto, rate_bps: u64, shape: bool) -> Request {
    Request::Network(NetworkRequest {
        src,
        dst,
        proto,
        src_port: None,
        dst_port: None,
        rate_bps,
        depth: DepthRule::Normal,
        action: PolicingAction::Drop,
        shape_at_source: shape,
    })
}

fn build(seed: u64) -> (Net, Gara, Vec<NodeId>, u64) {
    let mut b = TopoBuilder::new(LEGACY_SEED);
    let routers: Vec<NodeId> = (0..ROUTERS).map(|i| b.router(&format!("r{i}"))).collect();
    for i in 1..ROUTERS {
        b.link(
            routers[i - 1],
            routers[i],
            LinkCfg::atm_vc(40_000_000, SimDelta::from_micros(1_000)),
            QueueCfg::priority_default(),
        );
    }
    let hosts: Vec<NodeId> = (0..HOSTS)
        .map(|i| {
            let h = b.host(&format!("h{i}"));
            b.link(
                h,
                routers[i % ROUTERS],
                LinkCfg::fast_ethernet(SimDelta::from_micros(50)),
                QueueCfg::priority_default(),
            );
            h
        })
        .collect();
    let mut net = b.build();
    let mut gara = Gara::new();
    gara.manage_core_links(&net, 0.7);

    // Standing book: small advance reservations between one hour and one
    // day ahead, far past the churn's horizon, so they only add depth.
    let mut rng = SimRng::new(seed).fork_labeled("standing");
    let mut granted = 0;
    for _ in 0..STANDING {
        let a = rng.below(HOSTS as u64) as usize;
        let z = (a + 1 + rng.below(HOSTS as u64 - 1) as usize) % HOSTS;
        let start = SimTime::from_secs(3_600 + rng.below(82_800));
        let len = SimDelta::from_secs(rng.range(60, 3_600));
        let req = network(
            hosts[a],
            hosts[z],
            Proto::Tcp,
            rng.range(1, 5) * 100_000,
            false,
        );
        if gara
            .reserve(&mut net, req, StartSpec::At(start), Some(len))
            .is_ok()
        {
            granted += 1;
        }
    }
    (net, gara, hosts, granted)
}

pub fn rep(seed: u64, mode: Mode) -> Rep {
    let trace = mode == Mode::Traced;
    let seed = LEGACY_SEED ^ seed;
    let t0 = Instant::now();
    let (mut net, mut gara, hosts, standing_granted) = build(seed);
    let setup_s = t0.elapsed().as_secs_f64();

    let mut rng = SimRng::new(seed).fork_labeled("gara");
    let mut granted: Vec<ResvId> = Vec::new();
    let mut admits = Vec::with_capacity(OPS as usize / 2);
    let (mut modify, mut cancel, mut revoke) = (Vec::new(), Vec::new(), Vec::new());
    let t_run = Instant::now();
    for _ in 0..OPS {
        match draw_gara_op(&mut rng, &hosts, 1_000) {
            GaraOp::Reserve {
                src,
                dst,
                proto,
                rate_bps,
                duration_ms,
                shape,
            } => {
                let req = network(src, dst, proto, rate_bps, shape);
                let dur = duration_ms.map(SimDelta::from_millis);
                let t = Instant::now();
                let res = gara.reserve(&mut net, req, StartSpec::Now, dur);
                admits.push(t.elapsed().as_nanos() as u64);
                if let Ok(id) = res {
                    granted.push(id);
                }
            }
            GaraOp::Modify { victim, rate_bps } if !granted.is_empty() => {
                let id = granted[victim as usize % granted.len()];
                let t = Instant::now();
                let _ = gara.modify_network_rate(&mut net, id, rate_bps);
                if trace {
                    modify.push(t.elapsed().as_nanos() as u64);
                }
            }
            GaraOp::Cancel { victim } if !granted.is_empty() => {
                let id = granted[victim as usize % granted.len()];
                let t = Instant::now();
                gara.cancel(&mut net, id);
                if trace {
                    cancel.push(t.elapsed().as_nanos() as u64);
                }
            }
            GaraOp::Revoke { victim } if !granted.is_empty() => {
                let id = granted[victim as usize % granted.len()];
                let t = Instant::now();
                gara.revoke(&mut net, id);
                if trace {
                    revoke.push(t.elapsed().as_nanos() as u64);
                }
            }
            _ => {}
        }
    }
    let run_s = t_run.elapsed().as_secs_f64();

    let mut layers = Layers::new();
    let standing_slots: usize = gara.slot_tables().map(|(_, t)| t.len()).sum();
    let boundary_nodes: usize = gara.slot_tables().map(|(_, t)| t.boundary_count()).sum();
    let overcommitted = gara
        .slot_tables()
        .filter(|(_, t)| t.max_overcommit() > 0)
        .count();
    let grants = counter(&net, "gara.reservations_granted") - standing_granted as f64;
    let rejects =
        counter(&net, "gara.reservations_rejected") - (STANDING - standing_granted) as f64;
    if trace {
        let api_ns: u64 = [&admits, &modify, &cancel, &revoke]
            .iter()
            .map(|v| v.iter().sum::<u64>())
            .sum();
        layers.insert("gara.api_s", api_ns as f64 * 1e-9);
        layers.insert("gara.admit_p50_us", quantile_us(&mut admits, 0.50));
        layers.insert("gara.admit_p99_us", quantile_us(&mut admits, 0.99));
        layers.insert("gara.admit.n", admits.len() as f64);
        layers.insert("gara.resv_per_s", admits.len() as f64 / run_s);
        layers.insert("gara.modify_us.p99", quantile_us(&mut modify, 0.99));
        layers.insert("gara.cancel_us.p99", quantile_us(&mut cancel, 0.99));
        layers.insert("gara.revoke_us.p99", quantile_us(&mut revoke, 0.99));
        layers.insert("gara.grant_ratio", grants / admits.len().max(1) as f64);
        layers.insert("gara.standing_slots", standing_slots as f64);
        layers.insert("gara.boundary_nodes", boundary_nodes as f64);
    }
    let result = vec![
        ("standing_granted", standing_granted as f64),
        ("reserves", admits.len() as f64),
        ("granted", grants),
        ("rejected", rejects),
        ("modifies", counter(&net, "gara.modifies")),
        ("modifies_rejected", counter(&net, "gara.modifies_rejected")),
        ("cancels", counter(&net, "gara.cancels")),
        ("revocations", counter(&net, "gara.revocations")),
        ("overcommitted_tables", overcommitted as f64),
    ];
    Rep {
        setup_s,
        run_s,
        steps_ns: admits,
        out: Outcome {
            fingerprint: net.state_fingerprint(),
            events: net.events_processed(),
            result,
        },
        layers,
    }
}

/// Seed-independent sanity: every reserve was either granted or
/// rejected, some were granted, and no slot table is overcommitted.
pub fn sane(out: &Outcome) -> Result<(), String> {
    let get = |name: &str| out.result.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    let ok = get("granted") + get("rejected") == get("reserves")
        && get("granted") > 0.0
        && get("standing_granted") > 0.0
        && get("overcommitted_tables") == 0.0;
    if ok {
        Ok(())
    } else {
        Err(format!(
            "gara_churn outcome is inconsistent: {:?}",
            out.result
        ))
    }
}
