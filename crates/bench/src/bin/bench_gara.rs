//! GARA control-plane benchmark: broker reserve/modify/cancel/revoke
//! churn on a managed topology, plus direct slot-table admission at
//! several standing table sizes (the interval tree's O(log n) claim,
//! measured).
//!
//! The broker workload reuses qcheck's GARA script generator
//! ([`mpichgq_qcheck::draw_gara_op`]) as a seeded load generator: many
//! tenants issuing the same reserve-heavy op mix the scenario fuzzer
//! schedules, driven straight at the `Gara` service (no packet traffic —
//! this benchmarks the control plane, not the data plane). The table
//! workloads bypass the broker and hammer one [`SlotTable`] directly —
//! single admits, all-or-nothing batches, resizes, and a compaction
//! pass — at standing populations from thousands to hundreds of
//! thousands of slots.
//!
//! Outputs:
//! - `BENCH_gara.json` (or the path given as the first CLI argument):
//!   per-workload `reservations_per_sec` and `admission_p99_us`, gated
//!   in CI by `scripts/perf_gate.py` against the committed baseline;
//! - `results/gara/metrics.json`: the full registry snapshot — grant /
//!   reject / modify / revoke lifecycle counters, the per-reason
//!   `gara.rejects.*` breakdown, and per-workload admission-latency
//!   histograms — validated by `scripts/check_metrics.py`.
//!
//! Run with: `cargo run --release -p mpichgq-bench --bin bench_gara`
//! (`--quick` for the CI smoke mode: same topology and op mix, fewer
//! ops and the largest table skipped, so rates stay comparable).

use mpichgq_bench::output::write_artifact;
use mpichgq_gara::{Gara, NetworkRequest, Request, ResvId, SlotTable, StartSpec};
use mpichgq_netsim::{DepthRule, LinkCfg, Net, NodeId, PolicingAction, QueueCfg, TopoBuilder};
use mpichgq_obs::Histogram;
use mpichgq_qcheck::{draw_gara_op, GaraOp};
use mpichgq_sim::{SimDelta, SimRng, SimTime};
use std::time::Instant;

/// Counters pre-registered so every schema-required key appears in the
/// snapshot even when its count is zero (the registry prints every
/// registered counter; unregistered ones would just be absent).
const LIFECYCLE_COUNTERS: &[&str] = &[
    "gara.reservations_granted",
    "gara.reservations_rejected",
    "gara.modifies",
    "gara.modifies_rejected",
    "gara.cancels",
    "gara.revocations",
    "gara.injected_rejections",
    "gara.rejects.over_capacity",
    "gara.rejects.unknown_slot",
    "gara.rejects.no_route",
    "gara.rejects.unknown_server",
    "gara.rejects.invalid",
    "gara.rejects.injected",
];

struct WorkloadOut {
    name: String,
    description: String,
    /// Admissions attempted (reserve calls or direct table admits).
    admissions: u64,
    /// All operations issued, admissions included.
    ops: u64,
    wall_secs: f64,
    reservations_per_sec: f64,
    admission_p99_us: f64,
    extra: Vec<(&'static str, u64)>,
}

/// Broker churn: a line of core routers with hosts hanging off it, GARA
/// managing 70% of every core trunk, and one long op schedule drawn from
/// the qcheck generator applied tenant-by-tenant. Grants install real
/// enforcement (policer rules at edge routers), so this measures the
/// whole broker path, not just the slot tables.
fn broker_churn(seed: u64, n_ops: u64, net_out: &mut Option<Net>) -> WorkloadOut {
    const ROUTERS: usize = 8;
    const HOSTS: usize = 16;
    let mut b = TopoBuilder::new(seed);
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
            let r = routers[i % ROUTERS];
            b.link(
                h,
                r,
                LinkCfg::fast_ethernet(SimDelta::from_micros(50)),
                QueueCfg::priority_default(),
            );
            h
        })
        .collect();
    let mut net = b.build();
    let mut gara = Gara::new();
    gara.manage_core_links(&net, 0.7);
    for name in LIFECYCLE_COUNTERS {
        net.obs.metrics.counter(name);
    }

    let mut rng = SimRng::new(seed).fork_labeled("gara");
    let mut granted: Vec<ResvId> = Vec::new();
    let mut hist = Histogram::new();
    let t0 = Instant::now();
    let mut admissions = 0u64;
    for _ in 0..n_ops {
        match draw_gara_op(&mut rng, &hosts, 1_000) {
            GaraOp::Reserve {
                src,
                dst,
                proto,
                rate_bps,
                duration_ms,
                shape,
            } => {
                let req = Request::Network(NetworkRequest {
                    src,
                    dst,
                    proto,
                    src_port: None,
                    dst_port: None,
                    rate_bps,
                    depth: DepthRule::Normal,
                    action: PolicingAction::Drop,
                    shape_at_source: shape,
                });
                let dur = duration_ms.map(SimDelta::from_millis);
                let t = Instant::now();
                let res = gara.reserve(&mut net, req, StartSpec::Now, dur);
                hist.observe(t.elapsed().as_nanos() as u64);
                admissions += 1;
                if let Ok(id) = res {
                    granted.push(id);
                }
            }
            GaraOp::Modify { victim, rate_bps } => {
                if !granted.is_empty() {
                    let id = granted[(victim as usize) % granted.len()];
                    let _ = gara.modify_network_rate(&mut net, id, rate_bps);
                }
            }
            GaraOp::Cancel { victim } => {
                if !granted.is_empty() {
                    let id = granted[(victim as usize) % granted.len()];
                    gara.cancel(&mut net, id);
                }
            }
            GaraOp::Revoke { victim } => {
                if !granted.is_empty() {
                    let id = granted[(victim as usize) % granted.len()];
                    gara.revoke(&mut net, id);
                }
            }
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let p99 = hist.quantile(0.99).unwrap_or(0) as f64 / 1_000.0;
    net.obs.metrics.record_hist("gara.admission_ns", &hist);
    let c = |name: &str| net.obs.metrics.counter_value(name).unwrap_or(0);
    let extra = vec![
        ("granted", c("gara.reservations_granted")),
        ("rejected", c("gara.reservations_rejected")),
        ("modified", c("gara.modifies")),
        ("modify_rejected", c("gara.modifies_rejected")),
        ("cancelled", c("gara.cancels")),
        ("revoked", c("gara.revocations")),
    ];
    *net_out = Some(net);
    WorkloadOut {
        name: "broker_churn".into(),
        description: format!(
            "qcheck GARA op mix against the full broker on a {ROUTERS}-router line \
             ({HOSTS} hosts, 70% of each 40 Mb/s trunk managed), enforcement installed \
             per grant"
        ),
        admissions,
        ops: n_ops,
        wall_secs,
        reservations_per_sec: admissions as f64 / wall_secs,
        admission_p99_us: p99,
        extra,
    }
}

/// Direct slot-table churn at a fixed standing population: every round
/// admits a fresh slot and frees a random standing one (size stays
/// constant), with periodic resizes, all-or-nothing batches of 8
/// co-reservations, and a final same-tenant compaction pass.
fn table_churn(seed: u64, standing: u64, churn_ops: u64) -> (WorkloadOut, Histogram) {
    const HORIZON_NS: u64 = 86_400_000_000_000; // one simulated day
    let mut st = SlotTable::new(u64::MAX / 4); // capacity out of the way: measure the tree
    let mut rng = SimRng::new(seed).fork_labeled("table");
    let draw_window = |rng: &mut SimRng| {
        let start = rng.below(HORIZON_NS);
        let len = rng.range(1_000_000, HORIZON_NS / 100);
        (
            SimTime::from_nanos(start),
            SimTime::from_nanos(start.saturating_add(len).min(HORIZON_NS + len)),
        )
    };
    // Standing population: three quarters scattered windows, one quarter
    // laid down as chains of four contiguous equal-amount segments — the
    // shape a tenant renewing an advance reservation leaves behind, and
    // what the compaction pass at the end is for.
    let mut ids = Vec::with_capacity(standing as usize);
    let n_tenants = (standing / 8).max(1);
    while (ids.len() as u64) < standing {
        let tenant = rng.below(n_tenants);
        if rng.chance(0.25) {
            let (s, e) = draw_window(&mut rng);
            let seg = SimDelta::from_nanos((e.as_nanos() - s.as_nanos()).max(4) / 4);
            let amount = rng.range(1, 1_000);
            let mut at = s;
            for _ in 0..4 {
                ids.push(
                    st.try_insert_tenant(at, at + seg, amount, tenant)
                        .expect("capacity is effectively unbounded"),
                );
                at += seg;
            }
        } else {
            let (s, e) = draw_window(&mut rng);
            let amount = rng.range(1, 1_000);
            ids.push(
                st.try_insert_tenant(s, e, amount, tenant)
                    .expect("capacity is effectively unbounded"),
            );
        }
    }

    let mut hist = Histogram::new();
    let mut admissions = 0u64;
    let mut ops = 0u64;
    let t0 = Instant::now();
    for round in 0..churn_ops {
        match round % 8 {
            // Mostly: admit and free in equal measure (population stays
            // ~standing). A quarter of the admits are renewal chains —
            // four contiguous equal segments — keeping compactable runs
            // present at every table size even under heavy turnover.
            0..=5 => {
                let tenant = rng.below(n_tenants);
                let inserts = if rng.chance(0.25) {
                    let (s, e) = draw_window(&mut rng);
                    let seg = SimDelta::from_nanos((e.as_nanos() - s.as_nanos()).max(4) / 4);
                    let amount = rng.range(1, 1_000);
                    let mut at = s;
                    for _ in 0..4 {
                        let t = Instant::now();
                        let id = st.try_insert_tenant(at, at + seg, amount, tenant);
                        hist.observe(t.elapsed().as_nanos() as u64);
                        ids.push(id.expect("capacity is effectively unbounded"));
                        at += seg;
                    }
                    4
                } else {
                    let (s, e) = draw_window(&mut rng);
                    let amount = rng.range(1, 1_000);
                    let t = Instant::now();
                    let id = st.try_insert_tenant(s, e, amount, tenant);
                    hist.observe(t.elapsed().as_nanos() as u64);
                    ids.push(id.expect("capacity is effectively unbounded"));
                    1
                };
                admissions += inserts;
                for _ in 0..inserts {
                    let victim = rng.below(ids.len() as u64) as usize;
                    let id = ids.swap_remove(victim);
                    st.remove(id);
                }
                ops += 2 * inserts;
            }
            // Resize a standing slot in place.
            6 => {
                let victim = ids[rng.below(ids.len() as u64) as usize];
                let _ = st.try_resize(victim, rng.range(1, 1_000));
                ops += 1;
            }
            // A batch of 8 co-reservations, admitted all-or-nothing in
            // one tree pass, then freed.
            _ => {
                let batch: Vec<(SimTime, SimTime, u64)> = (0..8)
                    .map(|_| {
                        let (s, e) = draw_window(&mut rng);
                        (s, e, rng.range(1, 1_000))
                    })
                    .collect();
                let t = Instant::now();
                let got = st.try_insert_batch(&batch);
                hist.observe(t.elapsed().as_nanos() as u64);
                admissions += 8;
                for id in got.expect("capacity is effectively unbounded") {
                    st.remove(id);
                }
                ops += 9;
            }
        }
    }
    let churn_secs = t0.elapsed().as_secs_f64();

    // Compaction: merge adjacent same-amount slots per tenant — the
    // standing population is tenant-tagged, so chains exist whenever a
    // tenant drew back-to-back windows with equal amounts.
    let before = st.len() as u64;
    let tc = Instant::now();
    let merges = st.compact().len() as u64;
    let compact_secs = tc.elapsed().as_secs_f64();
    assert_eq!(before - merges, st.len() as u64, "compact merge accounting");

    let wall_secs = churn_secs + compact_secs;
    let p99 = hist.quantile(0.99).unwrap_or(0) as f64 / 1_000.0;
    let out = WorkloadOut {
        name: format!("table_{standing}"),
        description: format!(
            "direct SlotTable churn at a standing population of {standing} slots: \
             admit+free rounds, resizes, batches of 8, one compaction pass"
        ),
        admissions,
        ops,
        wall_secs,
        reservations_per_sec: admissions as f64 / churn_secs,
        admission_p99_us: p99,
        extra: vec![
            ("standing_slots", standing),
            ("boundary_nodes", st.boundary_count() as u64),
            ("compact_merges", merges),
            ("compact_us", (compact_secs * 1e6) as u64),
        ],
    };
    (out, hist)
}

fn json_workload(w: &WorkloadOut) -> String {
    let mut s = String::new();
    s.push_str("    {\n");
    s.push_str(&format!("      \"name\": \"{}\",\n", w.name));
    s.push_str(&format!("      \"description\": \"{}\",\n", w.description));
    s.push_str(&format!("      \"admissions\": {},\n", w.admissions));
    s.push_str(&format!("      \"ops\": {},\n", w.ops));
    s.push_str(&format!("      \"wall_secs\": {:.6},\n", w.wall_secs));
    s.push_str(&format!(
        "      \"reservations_per_sec\": {:.1},\n",
        w.reservations_per_sec
    ));
    s.push_str(&format!(
        "      \"admission_p99_us\": {:.3},\n",
        w.admission_p99_us
    ));
    s.push_str("      \"counts\": {");
    for (i, (k, v)) in w.extra.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{k}\": {v}"));
    }
    s.push_str("}\n    }");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--quick` is the CI smoke mode: identical topology and op mix with
    // fewer ops, and the largest standing table skipped. Rates stay
    // comparable (same per-op work at each size), which is what
    // scripts/perf_gate.py compares against the committed baseline.
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_gara.json".to_string());
    let seed = 0x6A7A;

    let broker_ops: u64 = if quick { 40_000 } else { 400_000 };
    let table_sizes: &[u64] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let churn_per_size: u64 = if quick { 30_000 } else { 200_000 };
    // Best of N identical runs per workload, as bench_engine does: a
    // deterministic op stream repeated, keeping the fastest wall clock so
    // one-off scheduling hiccups and cold caches don't skew the gate.
    let repeats = if quick { 2 } else { 3 };
    let best = |mut runs: Vec<(WorkloadOut, Option<Net>, Histogram)>| {
        let mut best = runs.pop().expect("at least one repeat");
        for r in runs {
            assert_eq!(
                r.0.admissions, best.0.admissions,
                "admission count varied across repeats"
            );
            if r.0.reservations_per_sec > best.0.reservations_per_sec {
                best = r;
            }
        }
        best
    };

    eprintln!("[bench_gara] broker_churn: {broker_ops} ops x{repeats} ...");
    let (broker, net, _) = best(
        (0..repeats)
            .map(|_| {
                let mut net = None;
                let w = broker_churn(seed, broker_ops, &mut net);
                (w, net, Histogram::new())
            })
            .collect(),
    );
    let mut net = net.expect("broker workload yields its net");
    eprintln!(
        "[bench_gara] broker_churn: {:.0} reservations/s, p99 {:.1} us",
        broker.reservations_per_sec, broker.admission_p99_us
    );

    let mut results = vec![broker];
    for &size in table_sizes {
        eprintln!("[bench_gara] table_{size}: {churn_per_size} churn rounds x{repeats} ...");
        let (w, _, hist) = best(
            (0..repeats)
                .map(|_| {
                    let (w, hist) = table_churn(seed, size, churn_per_size);
                    (w, None, hist)
                })
                .collect(),
        );
        eprintln!(
            "[bench_gara] table_{size}: {:.0} admissions/s, p99 {:.1} us",
            w.reservations_per_sec, w.admission_p99_us
        );
        net.obs
            .metrics
            .record_hist(&format!("gara.table_{size}.admission_ns"), &hist);
        results.push(w);
    }

    // results/gara/metrics.json: the broker net's registry carries the
    // lifecycle counters, per-reason reject breakdown, and every
    // workload's admission histogram.
    let metrics = net.metrics_json();
    write_artifact("gara", "metrics.json", &metrics);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"bench_gara\",\n");
    json.push_str(
        "  \"note\": \"GARA control-plane throughput; admissions/sec and p99 admit \
         latency per workload; release build\",\n",
    );
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, w) in results.iter().enumerate() {
        json.push_str(&json_workload(w));
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
}
