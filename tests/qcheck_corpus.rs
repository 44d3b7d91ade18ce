//! The qcheck pinned corpus (DESIGN.md §12): the invariant battery
//! applied to the canonical paper scenarios and to a fixed seed range of
//! fuzzed scenarios, plus the end-to-end failure pipeline (inject →
//! detect → shrink → artifact → bit-identical replay) exercised against
//! the deliberately re-introducible Karn bug.
//!
//! Every snapshot-level check here runs the same identities the live
//! auditor enforces, but from published counters/gauges alone — so any
//! experiment's `metrics.json` can be audited after the fact.

use mpichgq::qcheck::{
    audit_metrics_json, parse_repro, replay, repro_json, run_spec, shrink, Inject, ScenarioSpec,
};
use mpichgq_bench::{chaos, fig1, fig7, ChaosCfg, Fig1Cfg, RunOpts};
use mpichgq_sim::SimTime;

fn fig1_cfg() -> Fig1Cfg {
    Fig1Cfg {
        duration: SimTime::from_secs(5),
        ..Fig1Cfg::default()
    }
}

#[test]
fn fig1_snapshot_satisfies_the_conservation_battery() {
    let m = fig1(fig1_cfg(), &RunOpts::traced(256));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "fig1 snapshot violations: {viols:?}");
}

#[test]
fn fig7_snapshot_satisfies_the_conservation_battery() {
    let m = fig7(10.0, SimTime::from_secs(3), &RunOpts::traced(256));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "fig7 snapshot violations: {viols:?}");
}

#[test]
fn chaos_snapshot_satisfies_the_conservation_battery() {
    let m = chaos(ChaosCfg::fast(), &RunOpts::traced(2048));
    let viols = audit_metrics_json(&m.metrics_json).expect("snapshot parses");
    assert!(viols.is_empty(), "chaos snapshot violations: {viols:?}");
}

/// The pinned fuzz corpus: these seeds ran clean when the suite was
/// written and must stay clean. A failure here is a real regression in
/// some layer's bookkeeping (or a nondeterminism leak), not fuzz noise.
#[test]
fn pinned_seed_corpus_runs_clean() {
    for seed in 0..16 {
        let out = run_spec(&ScenarioSpec::from_seed(seed), &Inject::default());
        assert!(
            out.ok(),
            "seed {seed} violated {:?}",
            out.violations.first()
        );
        assert!(out.events > 0, "seed {seed} simulated nothing");
    }
}

/// Fingerprint values pinned at the moment the slot table moved from a
/// flat re-scan to the interval tree (PR 7), captured from the flat
/// implementation. The GARA script scenarios in this corpus exercise
/// reserve/modify/cancel/revoke through the broker on every seed, so
/// these staying bit-identical is the "the swap changed no observable
/// behavior" acceptance check — and any future admission change that
/// alters grant/reject decisions will trip it loudly.
///
/// Since the queue-discipline refactor this doubles as the strict-priority
/// bit-identicality proof: `qdisc` is pinned to 0 (the legacy SP +
/// drop-tail path, which draws nothing from the `"qdisc"` RNG stream), so
/// these fingerprints matching means the pluggable-discipline rebuild of
/// the queue layer changed no observable behavior under the default.
#[test]
fn pinned_corpus_fingerprints_are_unchanged_by_the_interval_tree_swap() {
    const PINNED: [(u64, u64, u64); 16] = [
        (0, 0x24d941e6b7eca1e7, 19606),
        (1, 0xa5fa70d0da02659e, 3190),
        (2, 0x62d81e0c8b8fdcc6, 6807),
        (3, 0x2fe047084db5aefb, 17760),
        (4, 0x4527f85217ab5e42, 12980),
        (5, 0x4b1a305716db8690, 16114),
        (6, 0x0de13ca03d199983, 3484),
        (7, 0x404d2bdf7ead852e, 9361),
        (8, 0xf51bf855d0c23d22, 8336),
        (9, 0xc677aa23f322acb0, 16896),
        (10, 0x511622688ea30328, 6193),
        (11, 0xbbdb49d3fbcafa56, 19449),
        (12, 0xec6f6aa2ff6bf036, 10462),
        (13, 0x803cc09a17f35d6e, 11049),
        (14, 0x24a1efeb48285870, 884),
        (15, 0xdd26af418e1504b6, 10661),
    ];
    for (seed, fingerprint, events) in PINNED {
        let mut spec = ScenarioSpec::from_seed(seed);
        spec.knobs.qdisc = 0;
        // Likewise pinned to zero since the rank-failure work: crash-free
        // scenarios draw nothing from the "hostfaults" stream, so these
        // fingerprints also prove the crash/restart machinery is inert
        // when unarmed.
        spec.knobs.host_faults = 0;
        let out = run_spec(&spec, &Inject::default());
        assert_eq!(
            out.fingerprint, fingerprint,
            "seed {seed}: fingerprint drifted from the pinned pre-swap value"
        );
        assert_eq!(out.events, events, "seed {seed}: event count drifted");
    }
}

#[test]
fn fuzzed_scenarios_are_bit_identical_across_runs() {
    for seed in [3, 7, 13] {
        let spec = ScenarioSpec::from_seed(seed);
        let a = run_spec(&spec, &Inject::default());
        let b = run_spec(&spec, &Inject::default());
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} diverged");
        assert_eq!(a.events, b.events);
    }
}

/// The acceptance pipeline: re-introduce the Karn bug via the injection
/// switch (no source patch), prove the fuzzer convicts it, shrink the
/// scenario, and replay the artifact bit-identically.
#[test]
fn injected_karn_bug_is_convicted_shrunk_and_replayable() {
    let inject = Inject { karn: true };
    let out = (0..40)
        .map(|s| run_spec(&ScenarioSpec::from_seed(s), &inject))
        .find(|o| o.violations.iter().any(|v| v.invariant == "karn"))
        .expect("no seed in 0..40 tripped the injected Karn bug");
    let shrunk = shrink(&out.spec, &inject, "karn", 40);
    let k = &shrunk.spec.knobs;
    assert!(
        k.tcp_flows + k.mpi_pairs > 0,
        "a Karn conviction needs at least one TCP-bearing workload: {k:?}"
    );
    let artifact = repro_json(&shrunk.outcome);
    let repro = parse_repro(&artifact).expect("artifact parses");
    assert_eq!(repro.spec, shrunk.spec);
    assert_eq!(repro.violation.invariant, "karn");
    let rep = replay(&repro);
    assert!(rep.same_invariant, "replay lost the violation");
    assert!(rep.same_fingerprint, "replay was not bit-identical");
}

/// Without the injection switch the same seeds carry no Karn violation —
/// i.e. the conviction above is attributable to the armed bug alone.
#[test]
fn karn_conviction_requires_the_injected_bug() {
    for seed in 0..40 {
        let out = run_spec(&ScenarioSpec::from_seed(seed), &Inject::default());
        assert!(
            !out.violations.iter().any(|v| v.invariant == "karn"),
            "seed {seed} convicted karn without the bug armed"
        );
    }
}
