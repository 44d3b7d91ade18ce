//! Offline analysis of packet-lifecycle traces.
//!
//! `Net::chrome_trace_json` exports a Chrome trace-event document (loadable
//! in Perfetto) whose `otherData` block carries per-flow delay/jitter
//! histogram snapshots and the SLO conformance table. This module turns
//! that document into a human-readable report:
//!
//! * top flows ranked by p99 one-way delay,
//! * per-hop delay decomposition (queue / serialization / wire per channel),
//! * the SLO report (deadlines, misses, worst streaks).
//!
//! [`summarize`] produces the report; [`check`] validates the document's
//! shape for CI (the `qreport --check` gate for traces). Both return an
//! error on a hostile document rather than panic (sums are checked), and
//! both are deterministic: identical input bytes produce
//! identical output bytes (integer-only formatting, stable sort keys), so
//! the report can be snapshot-tested.

use mpichgq_obs::{parse, JsonValue};
use std::collections::BTreeMap;

/// The `u64` at `path` below `v`, if every key exists and the leaf is one.
fn num(v: &JsonValue, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_u64()
}

/// The string member `key` of `v`, if present.
fn text<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// Validate a trace document's structure. Returns every problem found
/// (empty vector = conformant). This is the `qreport --check` CI gate.
pub fn check(json: &str) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let doc = parse(json).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_array) else {
        return Err(vec!["missing traceEvents array".into()]);
    };
    let mut named_pids: Vec<u64> = Vec::new();
    let mut used_pids: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if text(ev, "name").is_none() {
            errs.push(format!("event {i}: missing name"));
        }
        let Some(pid) = num(ev, &["pid"]) else {
            errs.push(format!("event {i}: missing pid"));
            continue;
        };
        match text(ev, "ph").unwrap_or("") {
            "M" => named_pids.push(pid),
            "X" => {
                used_pids.push(pid);
                if ev.get("ts").is_none() || ev.get("dur").is_none() {
                    errs.push(format!("event {i}: complete span without ts/dur"));
                }
                check_args(ev, i, &mut errs);
            }
            "i" => {
                used_pids.push(pid);
                if text(ev, "s") != Some("p") {
                    errs.push(format!("event {i}: instant without process scope"));
                }
                check_args(ev, i, &mut errs);
            }
            other => errs.push(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    named_pids.sort_unstable();
    for pid in used_pids {
        if named_pids.binary_search(&pid).is_err() {
            errs.push(format!("pid {pid} has events but no process_name metadata"));
        }
    }
    if text(&doc, "displayTimeUnit") != Some("ms") {
        errs.push("displayTimeUnit is not \"ms\"".into());
    }
    let Some(od) = doc.get("otherData") else {
        errs.push("missing otherData summary block".into());
        return Err(errs);
    };
    if num(od, &["spans_dropped"]).is_none() {
        errs.push("otherData.spans_dropped missing".into());
    }
    let mut misses_sum = 0u64;
    match od.get("flows").and_then(JsonValue::as_array) {
        None => errs.push("otherData.flows missing".into()),
        Some(flows) => {
            for f in flows {
                let name = text(f, "flow").unwrap_or("?");
                match num(f, &["delivered"]) {
                    None => errs.push(format!("flow {name}: missing delivered")),
                    Some(d) => {
                        let hist_count = num(f, &["delay_ns", "count"]);
                        if hist_count != Some(d) {
                            errs.push(format!(
                                "flow {name}: delay histogram count {hist_count:?} != delivered {d}"
                            ));
                        }
                    }
                }
                match misses_sum.checked_add(num(f, &["misses"]).unwrap_or(0)) {
                    Some(s) => misses_sum = s,
                    None => errs.push(format!("flow {name}: misses overflow u64")),
                }
                if f.get("jitter_ns").is_none() {
                    errs.push(format!("flow {name}: missing jitter histogram"));
                }
            }
        }
    }
    match od.get("slo") {
        None => errs.push("otherData.slo missing".into()),
        Some(slo) => {
            let total = num(slo, &["total_misses"]);
            if total != Some(misses_sum) {
                errs.push(format!(
                    "slo.total_misses {total:?} != sum of per-flow misses {misses_sum}"
                ));
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn check_args(ev: &JsonValue, i: usize, errs: &mut Vec<String>) {
    let Some(args) = ev.get("args") else {
        errs.push(format!("event {i}: missing args"));
        return;
    };
    for k in ["pkt", "ts_ns", "dur_ns"] {
        if num(args, &[k]).is_none() {
            errs.push(format!("event {i}: args.{k} missing"));
        }
    }
    if text(args, "flow").is_none() {
        errs.push(format!("event {i}: args.flow missing"));
    }
}

/// Why [`summarize`] refuses a trace whose span durations sum past
/// `u64::MAX` nanoseconds.
const OVERFLOW: &str = "span durations overflow u64";

/// Render the trace report. `top` bounds the flow table (0 = all flows).
pub fn summarize(json: &str, top: usize) -> Result<String, String> {
    let doc = parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;

    // pid -> process name, from metadata events.
    let mut pid_names: BTreeMap<u64, &str> = BTreeMap::new();
    for ev in events.iter().filter(|ev| text(ev, "ph") == Some("M")) {
        if let (Some(pid), Some(name)) = (
            num(ev, &["pid"]),
            ev.get("args").and_then(|a| text(a, "name")),
        ) {
            pid_names.insert(pid, name);
        }
    }

    // Per-channel hop decomposition — (queue, tx, wire) nanoseconds and
    // the tx span count — and instant-event counts.
    let mut hops: BTreeMap<u64, ([u64; 3], u64)> = BTreeMap::new();
    let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
    let mut span_events = 0u64;
    for ev in events {
        let name = text(ev, "name").unwrap_or("");
        match text(ev, "ph").unwrap_or("") {
            "X" => {
                span_events += 1;
                let (ns, tx_n) = hops.entry(num(ev, &["pid"]).unwrap_or(0)).or_default();
                let hop = match name {
                    "queue" => 0,
                    "tx" => 1,
                    "wire" => 2,
                    _ => continue,
                };
                let dur = num(ev, &["args", "dur_ns"]).unwrap_or(0);
                ns[hop] = ns[hop].checked_add(dur).ok_or(OVERFLOW)?;
                *tx_n += (hop == 1) as u64;
            }
            "i" => {
                span_events += 1;
                *instants.entry(name).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    let mut out = String::new();
    let od = doc.get("otherData").unwrap_or(&JsonValue::Null);
    let dropped = num(od, &["spans_dropped"]).unwrap_or(0);
    out.push_str(&format!(
        "trace: {span_events} lifecycle events ({dropped} spans dropped at capture)\n"
    ));

    // --- Flow table, ranked by p99 one-way delay -------------------------
    if let Some(flows) = od.get("flows").and_then(JsonValue::as_array) {
        // (p99, name, row) — sort desc by p99, then name for determinism.
        let mut rows: Vec<(u64, &str, &JsonValue)> = flows
            .iter()
            .map(|f| {
                let p99 = num(f, &["delay_ns", "p99"]).unwrap_or(0);
                (p99, text(f, "flow").unwrap_or("?"), f)
            })
            .collect();
        rows.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        let shown = bound(top, rows.len());
        out.push_str(&format!(
            "\nflows by p99 one-way delay ({shown} of {}):\n",
            rows.len()
        ));
        out.push_str(
            "  flow                              delivered      p50      p90      p99    worst\n",
        );
        for (p99, name, f) in rows.iter().take(shown) {
            let g = |path: &[&str]| num(f, path).unwrap_or(0);
            out.push_str(&format!(
                "  {:<32} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
                name,
                g(&["delivered"]),
                fmt_ns(g(&["delay_ns", "p50"])),
                fmt_ns(g(&["delay_ns", "p90"])),
                fmt_ns(*p99),
                fmt_ns(g(&["worst_delay_ns"])),
            ));
        }
    }

    // --- Per-hop decomposition ------------------------------------------
    let chan_rows: Vec<(&str, &([u64; 3], u64))> = hops
        .iter()
        .filter_map(|(pid, agg)| Some((*pid_names.get(pid)?, agg)))
        .filter(|(name, _)| name.starts_with("chan"))
        .collect();
    if !chan_rows.is_empty() {
        out.push_str("\nper-hop delay decomposition (totals across packets):\n");
        out.push_str("  channel                           pkts    queue       tx     wire\n");
        let mut t = [0u64; 3];
        for (name, (ns, tx_n)) in &chan_rows {
            out.push_str(&format!(
                "  {:<32} {:>5} {:>8} {:>8} {:>8}\n",
                name,
                tx_n,
                fmt_ns(ns[0]),
                fmt_ns(ns[1]),
                fmt_ns(ns[2]),
            ));
            for (t, &ns) in t.iter_mut().zip(ns) {
                *t = t.checked_add(ns).ok_or(OVERFLOW)?;
            }
        }
        let total = t
            .iter()
            .try_fold(0u64, |a, &x| a.checked_add(x))
            .ok_or(OVERFLOW)?;
        let pct = |x: u64| (x as u128 * 100 / total.max(1) as u128) as u64;
        if total > 0 {
            out.push_str(&format!(
                "  total: queue {} ({}%), tx {} ({}%), wire {} ({}%)\n",
                fmt_ns(t[0]),
                pct(t[0]),
                fmt_ns(t[1]),
                pct(t[1]),
                fmt_ns(t[2]),
                pct(t[2]),
            ));
        }
    }

    // --- Instant events --------------------------------------------------
    if !instants.is_empty() {
        out.push_str("\ninstant events:\n");
        for (name, n) in &instants {
            out.push_str(&format!("  {name:<20} {n:>8}\n"));
        }
    }

    // --- SLO report ------------------------------------------------------
    if let Some(slo) = od.get("slo") {
        let total = num(slo, &["total_misses"]).unwrap_or(0);
        out.push_str(&format!("\nSLO conformance (total misses: {total}):\n"));
        if let Some(flows) = slo.get("flows").and_then(JsonValue::as_array) {
            out.push_str(
                "  flow                               deadline delivered   misses maxstreak\n",
            );
            for f in flows {
                let name = text(f, "flow").unwrap_or("?");
                let dl = num(f, &["deadline_ns"]).map_or_else(|| "-".to_string(), fmt_ns);
                let g = |k: &str| num(f, &[k]).unwrap_or(0);
                let (delivered, misses) = (g("delivered"), g("misses"));
                let streak = g("miss_streak_max");
                out.push_str(&format!(
                    "  {name:<32} {dl:>10} {delivered:>9} {misses:>8} {streak:>9}\n"
                ));
            }
        }
    }
    Ok(out)
}

/// Table row bound: `top == 0` means all rows.
pub(crate) fn bound(top: usize, len: usize) -> usize {
    if top == 0 {
        len
    } else {
        top.min(len)
    }
}

/// Format nanoseconds with an SI unit, integer math only (byte-stable).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_is_fixed_width_per_magnitude() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_000), "1.000us");
        assert_eq!(fmt_ns(1_500_000), "1.500ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.000s");
        assert_eq!(fmt_ns(3_932_160), "3.932ms");
    }

    #[test]
    fn empty_trace_summarizes_and_checks() {
        let json = r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#;
        let report = summarize(json, 10).unwrap();
        assert!(report.contains("0 lifecycle events"));
        // The empty (tracing-disabled) export has no otherData: check
        // flags it, since CI should never gate on a disabled trace.
        assert!(check(json).is_err());
    }

    /// Two span durations summing past `u64::MAX` make `summarize`
    /// return an error, not panic.
    #[test]
    fn overflowing_span_durations_are_an_error_not_a_panic() {
        let span = r#"{"name":"queue","ph":"X","ts":0,"dur":0,"pid":1,"tid":1,"args":{"pkt":0,"flow":"f","ts_ns":0,"dur_ns":18446744073709551615}}"#;
        let json = format!(r#"{{"traceEvents":[{span},{span}],"displayTimeUnit":"ms"}}"#);
        assert_eq!(
            summarize(&json, 10).unwrap_err(),
            "span durations overflow u64"
        );
    }

    #[test]
    fn check_catches_shape_violations() {
        let json = r#"{"traceEvents":[{"name":"queue","ph":"X","ts":0,"pid":1,"tid":1}],"displayTimeUnit":"ms"}"#;
        let errs = check(json).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("without ts/dur")));
        assert!(errs.iter().any(|e| e.contains("no process_name")));
        assert!(errs.iter().any(|e| e.contains("otherData")));
    }
}
