//! Offline analysis of sampled timeline documents.
//!
//! `Net::timeline_json` exports the fixed-interval time-series document
//! (`results/<exp>/timeline.json`) the in-run sampler records: named
//! counter and gauge series with delta-encoded timestamps. This module
//! turns that document into a human-readable report:
//!
//! * per-series summary tables (counters ranked by total increase,
//!   gauges by peak),
//! * the SLO burn-rate report (peak fast/slow-window burn, time spent
//!   above the alert threshold),
//! * peak attribution: when each hot series hit its maximum.
//!
//! Both [`summarize`] and [`check`] read the document through
//! [`Timeline::from_json`], the format's one decoder; `check` is the
//! `qreport --check` CI gate for timelines. Both are deterministic:
//! identical input bytes produce identical output bytes (stable sort
//! keys, shortest-round-trip float formatting), so reports can be
//! snapshot-tested.

use crate::qtrace::{bound, fmt_ns};
use mpichgq_obs::Timeline;

/// Validate a timeline document ([`Timeline::from_json`]'s rules).
/// Returns every problem found. This is the `qreport --check` CI gate
/// for timelines.
pub fn check(json: &str) -> Result<(), Vec<String>> {
    Timeline::from_json(json).map(|_| ())
}

/// Render the timeline report. `top` bounds each ranked table (0 = all).
pub fn summarize(json: &str, top: usize) -> Result<String, String> {
    let tl = Timeline::from_json(json).map_err(|errs| errs.join("; "))?;
    let mut counters: Vec<(&str, &[u64], &[u64])> = Vec::new();
    let mut gauges: Vec<(&str, &[u64], &[f64])> = Vec::new();
    for name in tl.names() {
        match (tl.counter(name), tl.gauge(name)) {
            (Some((t, v)), _) => counters.push((name, t, v)),
            (_, Some((t, v))) => gauges.push((name, t, v)),
            _ => {}
        }
    }
    let times = || {
        counters
            .iter()
            .map(|c| c.1)
            .chain(gauges.iter().map(|g| g.1))
    };
    let max_samples = times().map(<[u64]>::len).max().unwrap_or(0);
    let t_min = times().filter_map(|t| t.first()).min();
    let t_max = times().filter_map(|t| t.last()).max();
    let span = match (t_min, t_max) {
        (Some(a), Some(b)) => b - a,
        _ => 0,
    };
    let interval = tl.interval_ns();
    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {} series, {} samples max, interval {}, span {}\n",
        tl.series_count(),
        max_samples,
        fmt_ns(interval),
        fmt_ns(span),
    ));

    // --- Counters by total increase --------------------------------------
    // Decoded counters are monotone, so these differences cannot wrap.
    let total = |v: &[u64]| v.last().map_or(0, |l| l - v[0]);
    counters.sort_by(|a, b| total(b.2).cmp(&total(a.2)).then(a.0.cmp(b.0)));
    let shown = bound(top, counters.len());
    if shown > 0 {
        out.push_str(&format!(
            "\ncounters by total increase ({shown} of {}):\n",
            counters.len()
        ));
        out.push_str(
            "  series                                 samples       last      total  max_step\n",
        );
        for &(name, t, v) in counters.iter().take(shown) {
            let max_step = v.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            out.push_str(&format!(
                "  {:<38} {:>7} {:>10} {:>10} {:>9}\n",
                name,
                t.len(),
                v.last().copied().unwrap_or(0),
                total(v),
                max_step,
            ));
        }
    }

    // --- Gauges by peak ---------------------------------------------------
    gauges.sort_by(|a, b| peak(b.2).total_cmp(&peak(a.2)).then_with(|| a.0.cmp(b.0)));
    let shown = bound(top, gauges.len());
    if shown > 0 {
        out.push_str(&format!(
            "\ngauges by peak ({shown} of {}):\n",
            gauges.len()
        ));
        out.push_str(
            "  series                                 samples       last       peak  at\n",
        );
        for &(name, t, v) in gauges.iter().take(shown) {
            let (pv, pt) = peak_at(t, v);
            out.push_str(&format!(
                "  {:<38} {:>7} {:>10} {:>10}  {}\n",
                name,
                t.len(),
                v.last().copied().unwrap_or(0.0),
                pv,
                fmt_ns(pt),
            ));
        }
    }

    // --- SLO burn-rate report ---------------------------------------------
    out.push_str("\nSLO burn rate:\n");
    match tl.last_counter("slo.misses") {
        Some(m) => out.push_str(&format!("  slo.misses: {m} total\n")),
        None => out.push_str("  slo.misses: series absent (no deadline tracking)\n"),
    }
    let mut any_burn = false;
    for (label, name) in [("fast", "slo.burn.fast"), ("slow", "slo.burn.slow")] {
        if let Some((t, v)) = tl.gauge(name) {
            any_burn = true;
            let (pv, pt) = peak_at(t, v);
            let hot = v.iter().filter(|&&x| x >= 1.0).count();
            out.push_str(&format!(
                "  {label} window: peak {pv}x budget at {}; {hot} sample(s) >= 1.0x (~{})\n",
                fmt_ns(pt),
                fmt_ns((hot as u64).saturating_mul(interval)),
            ));
        }
    }
    if !any_burn {
        out.push_str("  burn series absent (sampler ran without lifecycle tracking)\n");
    }
    Ok(out)
}

/// Peak value of a gauge (0.0 when empty).
fn peak(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0f64, f64::max)
}

/// Peak gauge value and the timestamp of its first occurrence.
fn peak_at(t: &[u64], v: &[f64]) -> (f64, u64) {
    let p = peak(v);
    let at = v.iter().position(|&x| x == p).map_or(0, |i| t[i]);
    (p, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpichgq_obs::Timeline;

    fn sample_doc() -> String {
        let mut tl = Timeline::new(100);
        tl.push_counter("slo.misses", 100, 0);
        tl.push_counter("slo.misses", 200, 3);
        tl.push_counter("net.pkts.delivered", 100, 10);
        tl.push_counter("net.pkts.delivered", 200, 30);
        tl.push_gauge("iface000.backlog_bytes", 100, 0.0);
        tl.push_gauge("iface000.backlog_bytes", 200, 1500.0);
        tl.push_gauge("slo.burn.fast", 200, 2.5);
        tl.to_json()
    }

    #[test]
    fn sampler_output_passes_check() {
        assert_eq!(check(&sample_doc()), Ok(()));
    }

    #[test]
    fn summarize_reports_counters_gauges_and_burn() {
        let report = summarize(&sample_doc(), 0).unwrap();
        assert!(report.contains("4 series"));
        assert!(report.contains("slo.misses: 3 total"));
        assert!(report.contains("net.pkts.delivered"));
        assert!(report.contains("iface000.backlog_bytes"));
        assert!(report.contains("fast window: peak 2.5x budget"));
        // Deterministic: same bytes in, same bytes out.
        assert_eq!(report, summarize(&sample_doc(), 0).unwrap());
    }

    #[test]
    fn check_catches_shape_violations() {
        let json = r#"{"timeline":1,"interval_ns":100,"series":{"b":{"kind":"counter","t0_ns":5,"dt_ns":[0],"v0":1,"dv":[2,3]},"a":{"kind":"gauge","t0_ns":null,"dt_ns":[],"values":[]}}}"#;
        let errs = check(json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not strictly sorted")));
        assert!(errs.iter().any(|e| e.contains("non-positive entry")));
        assert!(errs.iter().any(|e| e.contains("dv length")));
        assert!(errs.iter().any(|e| e.contains("empty (null t0_ns)")));
    }

    /// Undoing the delta encoding past `u64::MAX` is an error for both
    /// entry points, not an arithmetic panic.
    #[test]
    fn overflowing_timestamps_are_an_error_not_a_panic() {
        let json = r#"{"timeline":1,"interval_ns":1,"series":{"a":{"kind":"counter","t0_ns":18446744073709551615,"dt_ns":[1],"v0":0,"dv":[1]}}}"#;
        let errs = check(json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("dt_ns overflows u64")));
        assert!(summarize(json, 0).is_err());
    }

    #[test]
    fn check_rejects_missing_series() {
        assert!(check(r#"{"timeline":1,"interval_ns":100}"#).is_err());
        assert!(check(r#"{"timeline":2,"interval_ns":100,"series":{}}"#).is_err());
    }
}
