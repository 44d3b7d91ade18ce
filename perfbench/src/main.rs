//! The repository's benchmark: one command per workload, every metric
//! printed by name with its unit, every run's simulated output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig9_observed|gara_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload (set-up, then the measured run) in whole
//! cycles over its inputs until `--seconds` have passed and reports
//! medians over the repetitions. Between repetitions it runs a fixed
//! reference kernel (see `reference.rs`), and the end-to-end timings are
//! each repetition's host time over the kernel's host time beside it, so
//! the host's own drift cancels. `--trace 0` reports the end-to-end
//! metrics of untraced repetitions. `--trace 1` runs each input untraced,
//! traced and, for `fig9_observed`, in its companion modes (Figure 9
//! disarmed; the sharded WAN world at one and two threads) and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object; the lines before it are a readable report. See README.md.

mod churn;
mod common;
mod expected;
mod fig9;
mod heap;
mod layers;
mod reference;
mod wan;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use common::{quantile_us, Layers, Mode, Outcome, Rep};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig9Observed,
    GaraChurn,
}

/// The world a sharded repetition runs, for outcome checks and pins.
const SHARDED: &str = "sharded_wan";

impl Workload {
    const ALL: [Workload; 2] = [Workload::Fig9Observed, Workload::GaraChurn];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig9Observed => "fig9_observed",
            Workload::GaraChurn => "gara_churn",
        }
    }

    /// The modes one round of a run visits: untraced only, or with
    /// `trace` also traced and the workload's companion modes.
    fn cycle(self, trace: bool) -> Vec<Mode> {
        let mut modes = vec![Mode::Plain];
        if trace {
            modes.push(Mode::Traced);
            if self == Workload::Fig9Observed {
                modes.extend([
                    Mode::Disarmed,
                    Mode::Sharded {
                        threads: wan::THREADS,
                        traced: false,
                    },
                    Mode::Sharded {
                        threads: 1,
                        traced: false,
                    },
                    Mode::Sharded {
                        threads: wan::THREADS,
                        traced: true,
                    },
                ]);
            }
        }
        modes
    }

    /// The world `mode` runs: the workload's own, or the sharded one.
    fn world(self, mode: Mode) -> &'static str {
        match mode {
            Mode::Sharded { .. } => SHARDED,
            _ => self.name(),
        }
    }

    fn rep(self, seed: u64, mode: Mode) -> Rep {
        match (self, mode) {
            (_, Mode::Sharded { threads, traced }) => wan::rep(seed, threads, traced),
            (Workload::Fig9Observed, _) => fig9::rep(seed, mode),
            (Workload::GaraChurn, _) => churn::rep(seed, mode),
        }
    }

    fn sane(self, mode: Mode, out: &Outcome) -> Result<(), String> {
        match (self, mode) {
            (_, Mode::Sharded { .. }) => wan::sane(out),
            (Workload::Fig9Observed, _) => fig9::sane(out),
            (Workload::GaraChurn, _) => churn::sane(out),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = expected::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// End-to-end metrics: name, unit. Values come from untraced runs. A
/// `ref` is the host time of one run of the reference kernel.
const END_TO_END: [(&str, &str); 4] = [
    ("run_rel", "ref"),
    ("step_p99_rel", "ref"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: name, unit. Values come from traced runs; a layer
/// a workload does not use reads 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.calendar.scan_steps", "count"),
    ("sim.calendar.slow_pushes", "count"),
    ("sim.calendar.rebuilds", "count"),
    ("netsim.self_s", "s"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.pkts_tx", "count"),
    ("netsim.queue.enq", "count"),
    ("netsim.queue.drops", "count"),
    ("netsim.queue.drop_ratio", "ratio"),
    ("netsim.policer.drops", "count"),
    ("netsim.classifier.marked_ef", "count"),
    ("tcp.deliver_s", "s"),
    ("tcp.deliver.n", "count"),
    ("tcp.timer_s", "s"),
    ("tcp.timer.n", "count"),
    ("tcp.segs_sent", "count"),
    ("tcp.rtx_ratio", "ratio"),
    ("tcp.rtos", "count"),
    ("mpi.poll_s", "s"),
    ("mpi.poll.n", "count"),
    ("dsrt.cpu_done_s", "s"),
    ("dsrt.cpu_done.n", "count"),
    ("gara.control_s", "s"),
    ("gara.control.n", "count"),
    ("gara.api_s", "s"),
    ("gara.admit_p50_us", "us"),
    ("gara.admit_p99_us", "us"),
    ("gara.admit.n", "count"),
    ("gara.resv_per_s", "1/s"),
    ("gara.modify_us.p99", "us"),
    ("gara.cancel_us.p99", "us"),
    ("gara.revoke_us.p99", "us"),
    ("gara.grant_ratio", "ratio"),
    ("gara.standing_slots", "count"),
    ("gara.boundary_nodes", "count"),
    ("obs.overhead_s", "s"),
    ("obs.sample_s", "s"),
    ("obs.sample.n", "count"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("shard.speedup_2t", "ratio"),
    ("shard.events_imbalance", "ratio"),
    ("shard.handler_s_imbalance", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.host_s", "s"),
    ("share.netsim", "ratio"),
    ("share.tcp_deliver", "ratio"),
    ("share.tcp_timer", "ratio"),
    ("share.dsrt", "ratio"),
    ("share.gara", "ratio"),
    ("share.obs", "ratio"),
    ("share.bench", "ratio"),
    ("share.mpi_nested", "ratio"),
    ("run.reps", "count"),
    ("run.steps", "count"),
    ("run.nproc", "count"),
    ("run.threads", "count"),
    ("run.host_s", "s"),
    ("run.step_p99_us", "us"),
    ("run.ref_s", "s"),
];

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of one per-layer value over `reps`.
fn layer_median(reps: &[&Rep], key: &str) -> f64 {
    let v: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.layers.get(key).copied())
        .collect();
    median(&v)
}

/// Median host seconds of the measured run over `reps`.
fn run_median(reps: &[&Rep]) -> f64 {
    median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>())
}

/// The per-layer table: medians of the traced repetitions, the pairs
/// against the untraced and companion runs, and each layer's share of
/// the traced host time. `of` gives the repetitions of one mode.
fn per_layer<'a>(of: impl Fn(Mode) -> Vec<&'a Rep>) -> Layers {
    let (plain, traced) = (of(Mode::Plain), of(Mode::Traced));
    let mut l = Layers::new();
    for r in &traced {
        for &k in r.layers.keys() {
            l.insert(k, layer_median(&traced, k));
        }
    }
    let get = |l: &Layers, k: &str| l.get(k).copied().unwrap_or(0.0);
    let traced_run = run_median(&traced);
    let events = get(&l, "sim.events");
    l.insert("sim.events_per_s", events / traced_run);
    l.insert(
        "netsim.self_ns_per_event",
        get(&l, "netsim.self_s") * 1e9 / events.max(1.0),
    );
    l.insert("trace.overhead_ratio", traced_run / run_median(&plain));
    l.insert("trace.host_s", traced_run);
    let disarmed = of(Mode::Disarmed);
    if !disarmed.is_empty() {
        l.insert("obs.overhead_s", run_median(&plain) - run_median(&disarmed));
    }
    let sharded = |threads, traced| of(Mode::Sharded { threads, traced });
    let (one, two) = (sharded(1, false), sharded(wan::THREADS, false));
    if !one.is_empty() {
        l.insert("shard.speedup_2t", run_median(&one) / run_median(&two));
        let two_traced = sharded(wan::THREADS, true);
        for k in ["shard.events_imbalance", "shard.handler_s_imbalance"] {
            l.insert(k, layer_median(&two_traced, k));
        }
    }
    // Shares of the traced host time, as ratios of totals over the
    // traced repetitions. The top-level layers are disjoint;
    // `share.bench` is the rest (the benchmark's own loop). MPI polls run
    // nested inside the upcalls and are shown separately.
    let total = |keys: &[&str]| -> f64 {
        traced
            .iter()
            .map(|r| keys.iter().map(|k| get(&r.layers, k)).sum::<f64>())
            .sum()
    };
    let traced_host: f64 = traced.iter().map(|r| r.run_s).sum();
    let parts: [(&str, &[&str]); 6] = [
        ("share.netsim", &["netsim.self_s"]),
        ("share.tcp_deliver", &["tcp.deliver_s"]),
        ("share.tcp_timer", &["tcp.timer_s"]),
        ("share.dsrt", &["dsrt.cpu_done_s"]),
        ("share.gara", &["gara.control_s", "gara.api_s"]),
        ("share.obs", &["obs.sample_s", "obs.export_s"]),
    ];
    let mut attributed = 0.0;
    for (k, keys) in parts {
        let share = total(keys) / traced_host;
        l.insert(k, share);
        attributed += share;
    }
    l.insert("share.bench", 1.0 - attributed);
    l.insert("share.mpi_nested", total(&["mpi.poll_s"]) / traced_host);
    l
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Distinct inputs a run cycles through. Input `k` of seed `s` is drawn
/// from the sub-seed `s * INPUTS + k`, so one run's medians cover eight
/// inputs, and seed 0's input 0 is the unperturbed legacy configuration.
/// A run stops only at the end of a cycle, so every input weighs the
/// same in its medians whatever the host's speed.
const INPUTS: u64 = 8;

/// One repetition, with the input and mode it ran. Its step samples are
/// reduced to their count and quantiles as it ends.
struct Run {
    input: u64,
    mode: Mode,
    rep: Rep,
    steps: usize,
    step_p99_us: f64,
    /// Host seconds of the reference kernel beside this repetition: the
    /// mean of its runs just before and just after.
    ref_s: f64,
    /// Peak live heap, for the untimed repetitions that count it.
    heap_mb: Option<f64>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sub_seed = |k: u64| args.seed.wrapping_mul(INPUTS).wrapping_add(k);
    let cycle = w.cycle(args.trace);
    let threads = cycle
        .iter()
        .map(|m| match m {
            Mode::Sharded { threads, .. } => *threads,
            _ => 1,
        })
        .max()
        .unwrap_or(1);

    // Every round runs the next input once in each mode of the cycle.
    // Untraced, the first cycle counts the heap and is not timed: the
    // counting allocator stays off in the timed repetitions.
    let mut runs: Vec<Run> = Vec::new();
    let mut ref_before = reference::run();
    let start = Instant::now();
    let min_rounds = if args.trace { INPUTS } else { 2 * INPUTS };
    let mut round = 0;
    while round < min_rounds || round % INPUTS != 0 || start.elapsed() < budget {
        let input = round % INPUTS;
        let count_heap = !args.trace && round < INPUTS;
        for &mode in &cycle {
            if count_heap {
                heap::start();
            }
            let mut rep = w.rep(sub_seed(input), mode);
            let heap_mb = count_heap.then(|| heap::stop() as f64 / (1024.0 * 1024.0));
            let mut steps_ns = std::mem::take(&mut rep.steps_ns);
            let step_p99_us = quantile_us(&mut steps_ns, 0.99);
            let ref_after = reference::run();
            let ref_s = (ref_before + ref_after) / 2.0;
            ref_before = ref_after;
            eprintln!(
                "[perfbench] {} input {input} {mode:?}: setup {:.6} s, run {:.6} s, step p99 {step_p99_us:.3} us, ref {ref_s:.6} s, heap {heap_mb:?} MB",
                w.name(),
                rep.setup_s,
                rep.run_s
            );
            runs.push(Run {
                input,
                mode,
                rep,
                steps: steps_ns.len(),
                step_p99_us,
                ref_s,
                heap_mb,
            });
        }
        round += 1;
    }
    let peak_rss = peak_rss_mb();

    // Output checks. Every repetition of an input must reproduce the
    // first one of its world exactly, whatever its mode: the traced run
    // is read-only, observability changes nothing simulated, one thread
    // equals two. On the default seed each input's outcome must equal the
    // pinned one; on every seed it must pass the world's sanity check.
    let mut first: std::collections::BTreeMap<(&str, u64), &Outcome> = Default::default();
    let mut problems: Vec<String> = Vec::new();
    let mut failed = 0u64;
    for r in &runs {
        let world = w.world(r.mode);
        let mut bad = Vec::new();
        let seen = *first.entry((world, r.input)).or_insert(&r.rep.out);
        if r.rep.out != *seen {
            bad.push(format!(
                "{world} input {} {:?} run diverged: {:?} vs {seen:?}",
                r.input, r.mode, r.rep.out
            ));
        }
        if args.seed == expected::DEFAULT_SEED {
            let pinned = expected::outcome(world, r.input);
            if r.rep.out != pinned {
                bad.push(format!(
                    "{world} input {} differs from the pinned outcome: {:?} vs {pinned:?}",
                    r.input, r.rep.out
                ));
            }
        }
        if let Err(e) = w.sane(r.mode, &r.rep.out) {
            bad.push(format!("{world} input {}: {e}", r.input));
        }
        if !bad.is_empty() {
            failed += 1;
            problems.extend(bad);
        }
    }
    let attempted = runs.len() as u64;
    for p in problems.iter().take(4) {
        eprintln!("[perfbench] CHECK FAILED: {p}");
    }

    // Timings come from the repetitions that did not count the heap.
    let timed = |m: Mode| {
        runs.iter()
            .filter(|r| r.mode == m && r.heap_mb.is_none())
            .collect::<Vec<_>>()
    };
    let of = |m: Mode| timed(m).into_iter().map(|r| &r.rep).collect::<Vec<_>>();
    let plain = timed(Mode::Plain);
    let steps: usize = plain.iter().map(|r| r.steps).sum();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "# perfbench {} seed={} seconds={} trace={} nproc={} threads={threads} profile={} inputs={INPUTS} rounds={round} reps={} heap_reps={} step_samples={} multi_thread_numbers={} process_peak_rss_mb={peak_rss:.1}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        plain.len(),
        runs.iter().filter(|r| r.heap_mb.is_some()).count(),
        steps,
        if threads == 1 {
            "n/a"
        } else if nproc >= threads {
            "armed"
        } else {
            "unarmed"
        },
    );
    for ((world, k), out) in &first {
        let results: Vec<String> = out.result.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let _ = writeln!(
            report,
            "# outcome {world} input={k} fingerprint={:#018x} events={} {}",
            out.fingerprint,
            out.events,
            results.join(" ")
        );
    }
    let _ = writeln!(report, "# error_rate {failed}/{attempted}");

    let med = |f: fn(&Run) -> f64| median(&plain.iter().map(|r| f(r)).collect::<Vec<_>>());
    let (host_run_s, host_step_p99_us) = (med(|r| r.rep.run_s), med(|r| r.step_p99_us));
    let ref_s = med(|r| r.ref_s);
    let _ = writeln!(
        report,
        "# host run_s={host_run_s:.6} step_p99_us={host_step_p99_us:.3} ref_s={ref_s:.6}"
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut l = per_layer(of);
        l.insert("run.reps", plain.len() as f64);
        l.insert("run.steps", steps as f64);
        l.insert("run.nproc", nproc as f64);
        l.insert("run.threads", threads as f64);
        l.insert("run.host_s", host_run_s);
        l.insert("run.step_p99_us", host_step_p99_us);
        l.insert("run.ref_s", ref_s);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, l.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        let heap_mb: Vec<f64> = runs.iter().filter_map(|r| r.heap_mb).collect();
        let values = [
            med(|r| r.rep.run_s / r.ref_s),
            med(|r| r.step_p99_us * 1e-6 / r.ref_s),
            med(|r| r.rep.setup_s),
            median(&heap_mb),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, unit, v));
        }
    }
    for (name, unit, v) in &metrics {
        let _ = writeln!(report, "{name:<28} {v:>16.6} {unit}");
    }
    print!("{report}");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            fmt_num(*v)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
