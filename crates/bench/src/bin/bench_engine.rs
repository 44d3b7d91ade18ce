//! Events-per-second benchmark for the event engine.
//!
//! Runs five workloads — a pure engine churn loop, the ping-pong transport
//! workload, the same ping-pong with the flight recorder and timeline
//! sampler armed (a non-gated instrumentation-overhead probe), a many-flow
//! bulk TCP simulation, and the Figure 1 sawtooth — and writes
//! `BENCH_engine.json` at the repository root (or to the path given as the
//! first CLI argument). `scripts/perf_gate.py` compares each workload's
//! `calendar.events_per_sec` against the committed baseline.
//!
//! Every repeat of a workload must process the same number of events, so
//! the binary doubles as a determinism smoke test.
//!
//! Run with: `cargo run --release -p mpichgq-bench --bin bench_engine`

use mpichgq_bench::bulk::{measure, transport_multiflow_bulk};
use mpichgq_bench::{fig1, fig5, Fig1Cfg, Fig5Cfg, RunOpts, TRACE_CAPACITY};
use mpichgq_sim::{Engine, SimDelta, SimRng, SimTime};

/// Wall-clock repeats per workload; the best run is reported so one-off
/// scheduling hiccups don't skew the rate.
const REPEATS: usize = 3;

/// Pure scheduler churn: hold a standing population of pending events and
/// repeatedly pop-then-reschedule with pseudorandom inter-event gaps.
/// Measures the engine alone, with no per-event simulation work diluting
/// the rate.
fn engine_churn(quick: bool) -> u64 {
    let population: usize = if quick { 50_000 } else { 100_000 };
    let ops: usize = if quick { 500_000 } else { 2_000_000 };
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = SimRng::new(0xBEEF);
    for i in 0..population {
        // Gaps from 1 ns to ~1 ms, with frequent exact ties.
        let gap = rng.next_u64() % 1_000_000 + 1;
        eng.schedule(SimTime::from_nanos(gap), i as u64);
    }
    for _ in 0..ops {
        let (at, _payload) = eng.pop().expect("population never drains");
        let gap = rng.next_u64() % 1_000_000 + 1;
        eng.schedule(at + SimDelta::from_nanos(gap), 0);
    }
    eng.processed()
}

/// The paper's ping-pong transport workload (one Figure 5 point) — MPI
/// ping-pong over TCP across GARNET with contending traffic on both trunk
/// directions and a premium reservation — instrumented per `opts`. With
/// the flight recorder and sampler armed, the events/sec delta against the
/// plain run is the cost of observability.
fn transport_pingpong(quick: bool, opts: &RunOpts) -> u64 {
    let mut cfg = Fig5Cfg::new(40 * 1000 / 8, 6000.0);
    if quick {
        cfg.duration = SimTime::from_secs(8);
        cfg.warmup = SimTime::from_secs(3);
    }
    fig5(cfg, opts).events
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--quick` is the CI perf-smoke mode: fewer repeats, smaller churn
    // loop, shorter ping-pong, and the two slowest workloads skipped. The
    // events/sec rates stay comparable to the full run (same per-event
    // work), which is what scripts/perf_gate.py compares.
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let repeats = if quick { 2 } else { REPEATS };

    // (name, description, perf-gated, workload); `perf_gated: false`
    // entries are informative only — perf_gate.py never compares them.
    type Workload<'a> = (&'static str, &'static str, bool, Box<dyn Fn() -> u64 + 'a>);
    let mut workloads: Vec<Workload> = vec![
        (
            "engine_churn",
            "pure Engine pop+reschedule loop, 100k standing events, 2M ops",
            true,
            Box::new(|| engine_churn(quick)),
        ),
        (
            "transport_pingpong",
            "MPI ping-pong over TCP on GARNET (40 Kb msg, 6 Mb/s reservation) with bidirectional contention — the Figure 5 transport workload",
            true,
            Box::new(|| transport_pingpong(quick, &RunOpts::OFF)),
        ),
        (
            "transport_pingpong_sampled",
            "transport_pingpong with the flight recorder and the 100 ms timeline sampler armed — instrumentation-overhead probe, informative only (not perf-gated)",
            false,
            Box::new(|| transport_pingpong(quick, &RunOpts::traced(TRACE_CAPACITY))),
        ),
    ];
    if !quick {
        workloads.push((
            "transport_multiflow_bulk",
            "32 bulk TCP flows over a shared OC12 trunk (20 ms), 10 s simulated",
            true,
            Box::new(|| transport_multiflow_bulk(SimTime::from_secs(10))),
        ));
        workloads.push((
            "fig1_sawtooth",
            "Figure 1 premium-vs-competitive sawtooth on GARNET, 20 s simulated",
            true,
            Box::new(|| {
                let cfg = Fig1Cfg {
                    duration: SimTime::from_secs(20),
                    ..Fig1Cfg::default()
                };
                fig1(cfg, &RunOpts::OFF).events
            }),
        ));
    }

    let entries: Vec<String> = workloads
        .iter()
        .map(|(name, description, perf_gated, f)| {
            eprintln!("[bench_engine] {name} ...");
            let m = measure(repeats, f);
            eprintln!("[bench_engine] {name}: {:.0} ev/s", m.events_per_sec);
            format!(
                "    {{\n      \"name\": \"{name}\",\n      \"description\": \"{description}\",\n      \
                 \"perf_gated\": {perf_gated},\n      \"calendar\": {}\n    }}",
                m.json()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"bench_engine\",\n  \
         \"note\": \"events/sec of the calendar-queue engine; best of N runs; release build; \
         event counts asserted identical across repeats\",\n  \"quick\": {quick},\n  \
         \"repeats\": {repeats},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("{json}");
}
