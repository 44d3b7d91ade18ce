//! Summarize or validate a run artifact: a sampled timeline
//! (`timeline.json`) or a packet-lifecycle Chrome trace (`trace.json`).
//! The format is picked from the document's top-level key, `timeline`
//! or `traceEvents`.
//!
//! ```text
//! qreport <file>            print the report (timeline: series and burn
//!                           rate; trace: flow latency, per-hop delay, SLO)
//! qreport --check <file>    validate the document's shape (CI gate)
//! qreport --top N <file>    bound the ranked tables to N rows
//!                           (default 15 for timelines, 10 for traces)
//! ```

use mpichgq_apps::{qtop, qtrace};
use std::process::ExitCode;

const USAGE: &str = "usage: qreport [--check] [--top N] <timeline.json | trace.json>";

/// One format's reader: its name, default `--top`, check and report.
type Reader = (
    &'static str,
    usize,
    fn(&str) -> Result<(), Vec<String>>,
    fn(&str, usize) -> Result<String, String>,
);

fn main() -> ExitCode {
    let (mut check, mut top, mut path) = (false, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--top" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => top = Some(n),
                None => return fail(2, "qreport: --top needs a number"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            other => return fail(2, &format!("qreport: unexpected argument {other:?}")),
        }
    }
    let Some(path) = path else {
        return fail(2, USAGE);
    };
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail(2, &format!("qreport: cannot read {path}: {e}")),
    };
    let doc = match mpichgq_obs::parse(&json) {
        Ok(d) => d,
        Err(e) => return fail(1, &format!("{path}: not valid JSON: {e}")),
    };
    let (what, default_top, check_doc, summarize): Reader = if doc.get("timeline").is_some() {
        ("timeline", 15, qtop::check, qtop::summarize)
    } else if doc.get("traceEvents").is_some() {
        ("trace", 10, qtrace::check, qtrace::summarize)
    } else {
        return fail(1, &format!("{path}: not a timeline or trace document"));
    };
    if !check {
        match summarize(&json, top.unwrap_or(default_top)) {
            Ok(report) => print!("{report}"),
            Err(e) => return fail(1, &format!("qreport: {e}")),
        }
    } else if let Err(errs) = check_doc(&json) {
        eprintln!("{path}: {} problem(s):", errs.len());
        for e in &errs {
            eprintln!("  {e}");
        }
        return ExitCode::FAILURE;
    } else {
        println!("{path}: {what} shape OK");
    }
    ExitCode::SUCCESS
}

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(code)
}
