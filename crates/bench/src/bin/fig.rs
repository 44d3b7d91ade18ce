//! Render the paper's figures and tables from the registry in
//! `mpichgq_bench::figures`.
//!
//! ```text
//! fig <name>... [--fast]   print each named figure to stdout
//! fig all [--fast]         write every figure to results/<name>.txt
//! fig --list               print the registered names
//! ```
//!
//! Every run also writes its artifacts (`metrics.json`, `timeline.json`,
//! and `trace.json` for the lifecycle figures) under `results/<name>/`.
//! `--fast` selects the reduced sweeps and schedules the CI jobs use.
//!
//! Environment: `MPICHGQ_TIMELINE_MS` sets the timeline sampling interval
//! in milliseconds (default 100; `0` or `off` disables sampling), and
//! `MPICHGQ_THREADS` above 1 drives single-shard runs through the windowed
//! parallel engine, which leaves every output byte-identical.

use mpichgq_bench::figures::FIGURES;
use mpichgq_bench::{par_map, RunOpts, TIMELINE_DEFAULT_MS, TRACE_CAPACITY};
use mpichgq_sim::SimDelta;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: fig <name>...|all [--fast] [--list]";

/// The sampling interval `MPICHGQ_TIMELINE_MS` asks for: `None` for `0`
/// or `off`, [`TIMELINE_DEFAULT_MS`] when unset or unparseable.
fn timeline_interval() -> Option<SimDelta> {
    let ms = match std::env::var("MPICHGQ_TIMELINE_MS") {
        Err(_) => TIMELINE_DEFAULT_MS,
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "0" | "off" => return None,
            v => v
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms > 0)
                .unwrap_or(TIMELINE_DEFAULT_MS),
        },
    };
    Some(SimDelta::from_millis(ms))
}

fn main() -> ExitCode {
    let mut fast = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" => fast = true,
            "--list" => {
                for f in &FIGURES {
                    println!("{}", f.name);
                }
                return ExitCode::SUCCESS;
            }
            a if a.starts_with('-') => {
                eprintln!("fig: unknown option `{a}`\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => names.push(arg),
        }
    }
    let opts = RunOpts {
        trace_capacity: TRACE_CAPACITY,
        timeline: timeline_interval(),
    };

    if names == ["all"] {
        if let Err(e) = std::fs::create_dir_all("results") {
            eprintln!("fig: results/: {e}");
            return ExitCode::FAILURE;
        }
        let failed = par_map(&FIGURES, |f| {
            let mut text = Vec::new();
            (f.render)(&mut text, fast, &opts)
                .and_then(|()| std::fs::write(format!("results/{}.txt", f.name), text))
                .map_err(|e| eprintln!("fig: {}: {e}", f.name))
                .is_err()
        });
        return if failed.contains(&true) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    if names.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut figures = Vec::new();
    for name in &names {
        match FIGURES.iter().find(|f| f.name == name) {
            Some(f) => figures.push(f),
            None => {
                eprintln!("fig: unknown figure `{name}` (see `fig --list`)");
                return ExitCode::from(2);
            }
        }
    }
    let mut stdout = std::io::stdout().lock();
    for f in figures {
        if let Err(e) = (f.render)(&mut stdout, fast, &opts).and_then(|()| stdout.flush()) {
            eprintln!("fig: {}: {e}", f.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
