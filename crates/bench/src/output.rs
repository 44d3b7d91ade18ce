//! Output helpers for the figure renderers: CSV series and aligned tables,
//! so each figure prints the same rows/series the paper's figures and
//! tables report, plus the one writer for the per-run artifacts under
//! `results/<experiment>/`.

use crate::RunReport;
use mpichgq_sim::TimeSeries;
use std::io::{self, Write};

/// Print a `(t, value)` series as CSV with a header.
pub fn print_series(
    out: &mut dyn Write,
    title: &str,
    value_label: &str,
    s: &TimeSeries,
) -> io::Result<()> {
    writeln!(out, "# {title}")?;
    writeln!(out, "time_s,{value_label}")?;
    write!(out, "{}", s.to_csv())
}

/// Print a sweep family: one CSV block per row key.
pub fn print_sweep(
    out: &mut dyn Write,
    title: &str,
    row_label: &str,
    col_label: &str,
    value_label: &str,
    rows: &[(u32, Vec<(f64, f64)>)],
) -> io::Result<()> {
    writeln!(out, "# {title}")?;
    writeln!(out, "{row_label},{col_label},{value_label}")?;
    for (key, pts) in rows {
        for (x, y) in pts {
            writeln!(out, "{key},{x:.0},{y:.1}")?;
        }
    }
    Ok(())
}

/// Print an aligned table from header + rows of strings.
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    writeln!(out, "# {title}")?;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    writeln!(
        out,
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    )?;
    for row in rows {
        writeln!(out, "{}", fmt_row(row))?;
    }
    Ok(())
}

/// Write `results/<experiment>/<file>` (relative to the invocation
/// directory, like the `results/*.txt` series). The path is echoed on
/// stderr so figure output stays clean CSV; a write failure is a warning,
/// not an abort.
pub fn write_artifact(experiment: &str, file: &str, contents: &str) {
    let dir = std::path::Path::new("results").join(experiment);
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("# {file}: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Write a run's artifacts under `results/<experiment>/`: the registry
/// snapshot (`metrics.json`), the sampled timeline (`timeline.json`, when
/// sampling was on) and, when `trace` is set, the packet-lifecycle Chrome
/// trace (`trace.json`). Metrics and timelines are committed and gated
/// byte for byte; traces are large and gitignored.
pub fn write_report<T>(experiment: &str, r: &RunReport<T>, trace: bool) {
    write_artifact(experiment, "metrics.json", &r.metrics_json);
    if trace {
        write_artifact(experiment, "trace.json", &r.trace_json);
    }
    if let Some(timeline) = &r.timeline_json {
        write_artifact(experiment, "timeline.json", timeline);
    }
}
