//! Parallel-engine acceptance: the sharded conservative-lookahead runtime
//! (DESIGN.md §13) must be invisible in the results.
//!
//! Three layers of evidence, from degenerate to fully sharded:
//!
//! 1. the single-shard windowed schedule reproduces the plain engine's
//!    figure outputs bit-for-bit (fig1/fig7 CSVs and metric snapshots);
//! 2. every fuzz-corpus seed fingerprints identically when driven through
//!    the windowed schedule at 4 threads;
//! 3. genuinely partitioned multi-island scenarios fingerprint
//!    identically at 1, 2, and 4 worker threads.
//!
//! The unit-level partition validation (zero-delay cross links rejected,
//! degenerate maps rejected, merge-rule determinism) lives with the
//! engine in `crates/netsim/src/shard.rs`.

use mpichgq::qcheck::{run_par_scenario, run_spec, run_spec_threads, Inject, ScenarioSpec};
use mpichgq_bench::{fig1, fig7, Fig1Cfg, RunOpts};
use mpichgq_sim::SimTime;

/// Run `f` with `MPICHGQ_THREADS` set to `threads`, restoring the
/// previous value afterward. The windowed schedule is bit-identical to
/// the plain one, so a concurrent test momentarily observing the variable
/// changes nothing observable — which is exactly what these tests prove.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("MPICHGQ_THREADS").ok();
    std::env::set_var("MPICHGQ_THREADS", threads.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var("MPICHGQ_THREADS", v),
        None => std::env::remove_var("MPICHGQ_THREADS"),
    }
    out
}

#[test]
fn fig1_is_bit_identical_under_the_windowed_schedule() {
    let cfg = || Fig1Cfg {
        duration: SimTime::from_secs(5),
        ..Fig1Cfg::default()
    };
    let plain_m = with_threads(1, || fig1(cfg(), &RunOpts::traced(256)));
    let par_m = with_threads(4, || fig1(cfg(), &RunOpts::traced(256)));
    assert_eq!(
        plain_m.out.to_csv(),
        par_m.out.to_csv(),
        "fig1 CSV diverged"
    );
    assert_eq!(plain_m.events, par_m.events, "fig1 event count diverged");
    assert_eq!(
        plain_m.metrics_json, par_m.metrics_json,
        "fig1 metric snapshot diverged"
    );
}

#[test]
fn fig7_is_bit_identical_under_the_windowed_schedule() {
    let window = SimTime::from_secs(4);
    let plain_m = with_threads(1, || fig7(30.0, window, &RunOpts::traced(256)));
    let par_m = with_threads(4, || fig7(30.0, window, &RunOpts::traced(256)));
    assert_eq!(
        plain_m.out.to_csv(),
        par_m.out.to_csv(),
        "fig7 CSV diverged"
    );
    assert_eq!(plain_m.events, par_m.events, "fig7 event count diverged");
    assert_eq!(
        plain_m.metrics_json, par_m.metrics_json,
        "fig7 metric snapshot diverged"
    );
}

#[test]
fn corpus_seeds_fingerprint_identically_at_four_threads() {
    let inject = Inject::default();
    for seed in 0..8 {
        let spec = ScenarioSpec::from_seed(seed);
        let plain = run_spec(&spec, &inject);
        let par = run_spec_threads(&spec, &inject, 4);
        assert_eq!(
            (plain.fingerprint, plain.events),
            (par.fingerprint, par.events),
            "corpus seed {seed} diverged under the windowed schedule"
        );
    }
}

#[test]
fn partitioned_scenarios_fingerprint_identically_across_thread_counts() {
    for seed in 4..8 {
        let one = run_par_scenario(seed, 1);
        assert!(one.shards >= 2, "seed {seed} did not partition");
        for threads in [2, 4] {
            let n = run_par_scenario(seed, threads);
            assert_eq!(
                (one.fingerprint, one.events, one.shards),
                (n.fingerprint, n.events, n.shards),
                "seed {seed}: {threads}-thread partitioned run diverged"
            );
        }
    }
}
