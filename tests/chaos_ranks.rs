//! Shape and determinism tests for the chaos-ranks experiment: rolling
//! `HostCrash`/`HostRestart` faults plus one correlated two-host outage
//! across premium streamer pairs, with checkpoint/restart recovery and
//! the crash-release → restart-re-reserve adaptation path.
//!
//! Uses [`ChaosRanksCfg::fast`] — the same compressed schedule the CI
//! figures job runs with `--fast` — so the asserted shape matches what
//! `results/chaos_ranks/metrics.json` is generated from.

use mpichgq_bench::{chaos_ranks, ChaosRanksCfg, RunOpts};
use mpichgq_sim::SimDelta;

#[test]
fn chaos_ranks_survivors_hold_slo_through_rolling_failures() {
    let cfg = ChaosRanksCfg::fast();
    let out = chaos_ranks(cfg, &RunOpts::traced(2048)).out;

    // The acceptance bar: ≥90% of surviving premium pairs meet their
    // SLO through the whole plan (every pair survives — all crashed
    // hosts restart).
    assert!(
        out.slo_fraction >= 0.9,
        "{}/{} pairs met SLO",
        out.pairs_meeting_slo,
        out.scores.len()
    );

    // Pairs the plan never touched stream unimpeded and stay in budget.
    for s in out.scores.iter().filter(|s| !s.crashed) {
        assert!(s.slo_met, "untouched pair {} missed its SLO: {s:?}", s.pair);
        assert!(
            s.frames > 50,
            "untouched pair {} barely streamed: {s:?}",
            s.pair
        );
        assert_eq!((s.sender_epoch, s.receiver_epoch), (0, 0));
    }

    // Crashed pairs resume from their checkpoints: a second incarnation
    // ran on every crashed host, and the stream made progress well past
    // anything a single pre-crash window allows.
    for s in out.scores.iter().filter(|s| s.crashed) {
        assert!(
            s.frames > 20,
            "crashed pair {} never resumed: {s:?}",
            s.pair
        );
        assert_eq!(s.sender_epoch, 1, "pair {} sender respawned once", s.pair);
    }
    let last = out.scores.last().expect("pairs scored");
    assert_eq!(
        (last.sender_epoch, last.receiver_epoch),
        (1, 1),
        "the correlated outage restarts both hosts of the last pair"
    );

    // The fault ledger matches the plan: one crash+restart per rolling
    // victim, two for the correlated pair — and the crash semantics held
    // (nothing was ever delivered to a down host).
    let crashes = (cfg.rolling_crashes + 2) as u64;
    assert_eq!(out.faults.host_crashes, crashes);
    assert_eq!(out.faults.host_restarts, crashes);
    assert_eq!(out.faults.dead_deliveries, 0);

    // The adaptive pair's reservation followed its host down and back up.
    assert_eq!(out.crash_releases, 1);
    assert_eq!(out.restart_rereserves, 1);
    assert_eq!(out.grants, 2, "initial grant + restart re-grant");

    // Checkpoint traffic happened on both sides of every stream, the
    // dead-peer burn-down left no leaked unexpected-queue entries, and
    // requests to dead ranks errored instead of hanging.
    let total_frames: u64 = out.scores.iter().map(|s| s.frames).sum();
    assert!(out.checkpoints >= total_frames, "both sides checkpoint");
    assert_eq!(out.unexpected_depth, 0.0, "unexpected queue drained");
    assert!(out.reqs_failed >= 1, "requests to dead peers must error");
}

#[test]
fn chaos_ranks_metrics_expose_the_failure_ledger() {
    // The flight recorder is a bounded ring; arm it large enough that
    // the contention blaster's per-packet drop events cannot evict the
    // sparse crash/restart markers.
    let metrics = chaos_ranks(ChaosRanksCfg::fast(), &RunOpts::traced(65_536));
    for key in [
        "faults.drops.host_down",
        "faults.host_crashes",
        "faults.host_restarts",
        "mpi.checkpoints",
        "mpi.reqs_failed",
        "agent.crash_releases",
        "agent.restart_rereserves",
        "gara.reservations_granted",
        "slo.misses",
    ] {
        assert!(
            metrics.metrics_json.contains(&format!("\"{key}\"")),
            "metrics.json missing {key}"
        );
    }
    for kind in ["fault.host_crash", "fault.host_restart"] {
        assert!(
            metrics.metrics_json.contains(kind),
            "trace missing {kind} events"
        );
    }
}

/// Replays are bit-identical, and so is the parallel engine's lock-step
/// window schedule (the 1-thread vs N-thread guarantee: lab topologies
/// are a single shard, so the windowed event order must match the plain
/// run byte for byte).
#[test]
fn chaos_ranks_is_bit_identical_across_replays_and_windows() {
    let cfg = ChaosRanksCfg::fast();
    let opts = RunOpts::traced(2048);
    let a = chaos_ranks(cfg, &opts);
    let b = chaos_ranks(cfg, &opts);
    let windowed = ChaosRanksCfg {
        window: Some(SimDelta::from_millis(10)),
        ..cfg
    };
    let w = chaos_ranks(windowed, &opts);
    assert_eq!(a.events, b.events, "replay event counts diverged");
    assert_eq!(a.metrics_json, b.metrics_json, "replay snapshots diverged");
    assert_eq!(a.timeline_json, b.timeline_json);
    assert_eq!(a.events, w.events, "windowed event count diverged");
    assert_eq!(a.metrics_json, w.metrics_json, "windowed snapshot diverged");
    assert_eq!(a.timeline_json, w.timeline_json);
    let frames = |o: &mpichgq_bench::ChaosRanksOutcome| -> Vec<u64> {
        o.scores.iter().map(|s| s.frames).collect()
    };
    assert_eq!(frames(&a.out), frames(&b.out));
    assert_eq!(frames(&a.out), frames(&w.out));
}
