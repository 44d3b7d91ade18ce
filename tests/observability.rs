//! End-to-end checks for the observability layer: the registry snapshot a
//! figure run emits must be byte-for-byte deterministic, must carry the
//! sections the `metrics.json` schema promises (DESIGN.md §9), and
//! arming the flight recorder must not perturb the simulation itself.

use mpichgq_bench::{fig1, fig7, Fig1Cfg, RunOpts};
use mpichgq_obs::{parse, FlightRecorder, Histogram, JsonWriter};
use mpichgq_sim::SimTime;

fn short_cfg() -> Fig1Cfg {
    Fig1Cfg {
        duration: SimTime::from_secs(5),
        ..Fig1Cfg::default()
    }
}

#[test]
fn fig1_metrics_snapshot_is_deterministic() {
    let a = fig1(short_cfg(), &RunOpts::traced(256));
    let b = fig1(short_cfg(), &RunOpts::traced(256));
    assert_eq!(a.events, b.events, "event counts diverged between runs");
    assert_eq!(
        a.metrics_json, b.metrics_json,
        "metrics snapshot is not deterministic"
    );
    assert_eq!(a.out.points(), b.out.points());
}

#[test]
fn fig1_metrics_carry_the_documented_schema() {
    let m = fig1(short_cfg(), &RunOpts::traced(256));
    let j = &m.metrics_json;
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"trace\"",
        "\"net.pkts.sent\"",
        "\"net.pkts.delivered\"",
        "\"net.drops.policed\"",
        "\"engine.events_processed\"",
        "\"engine.pending_events\"",
        "\"gara.reservations_granted\"",
        "\"capacity\":256",
        "\"events\":[",
        "\"high_water\"",
        // Lifecycle tracing rides along with the flight recorder: per-class
        // and per-flow histograms plus the SLO conformance section.
        "\"histograms\"",
        "\"phb.be.queue_wait_ns\"",
        "\"p99\"",
        "\"slo\"",
        "\"total_misses\"",
    ] {
        assert!(j.contains(key), "snapshot missing {key}: {j}");
    }
    // Figure 1 deliberately overruns its 40 Mb/s reservation, so the run
    // must observe policer drops, both as a counter and as trace events.
    assert!(
        j.contains("\"drop.policed\""),
        "expected policed-drop trace events in: {j}"
    );
}

#[test]
fn arming_the_flight_recorder_does_not_perturb_the_simulation() {
    let off = fig1(short_cfg(), &RunOpts::OFF);
    let on = fig1(short_cfg(), &RunOpts::traced(1024));
    assert_eq!(
        off.events, on.events,
        "tracing changed the number of simulated events"
    );
    assert_eq!(off.out.points(), on.out.points());
    // The disabled run still publishes counters (they are always live) but
    // records no trace events, no histograms, and no SLO section.
    assert!(off.metrics_json.contains("\"recorded\":0"));
    assert!(!on.metrics_json.contains("\"recorded\":0"));
    assert!(off.metrics_json.contains("\"histograms\":{}"));
    assert!(!off.metrics_json.contains("\"slo\""));
    assert!(off.trace_json.contains("\"traceEvents\":[]"));
}

/// Two identical sampled runs must serialize byte-identical timelines,
/// and the document must pass the same shape gate CI runs (`qtop --check`)
/// while carrying the series the instrumented layers promise.
#[test]
fn fig1_timeline_is_byte_stable_and_passes_qtop_check() {
    let a = fig1(short_cfg(), &RunOpts::traced(256));
    let b = fig1(short_cfg(), &RunOpts::traced(256));
    let ta = a.timeline_json.expect("sampling was armed");
    let tb = b.timeline_json.expect("sampling was armed");
    assert_eq!(ta, tb, "timeline snapshot is not byte-stable");
    mpichgq_apps::qtop::check(&ta)
        .unwrap_or_else(|errs| panic!("timeline fails qtop --check: {errs:?}"));
    let doc = parse(&ta).expect("timeline parses");
    assert_eq!(doc.get("timeline").unwrap().as_u64(), Some(1));
    assert_eq!(
        doc.get("interval_ns").unwrap().as_u64(),
        Some(100_000_000),
        "interval must round-trip"
    );
    for series in [
        "engine.events_processed",
        "engine.pending_events",
        "net.pkts.delivered",
        "net.drops.policed",
        "slo.misses",
    ] {
        assert!(
            doc.get("series").unwrap().get(series).is_some(),
            "timeline missing series {series}: {ta}"
        );
    }
}

/// The sampler must be provably free: with sampling off, every other
/// artifact of the run — metrics snapshot, figure series, trace export,
/// event count — is bit-identical to a sampled run's.
#[test]
fn sampling_off_is_bit_identical_for_fig1() {
    let on_opts = RunOpts::traced(256);
    let off = fig1(
        short_cfg(),
        &RunOpts {
            timeline: None,
            ..on_opts
        },
    );
    let on = fig1(short_cfg(), &on_opts);
    assert_eq!(off.events, on.events, "sampling changed the event count");
    assert_eq!(off.out.points(), on.out.points());
    assert_eq!(off.metrics_json, on.metrics_json);
    assert_eq!(off.trace_json, on.trace_json);
    assert!(off.timeline_json.is_none());
    assert!(on.timeline_json.is_some());
}

#[test]
fn sampling_off_is_bit_identical_for_fig7() {
    let window = SimTime::from_secs(4);
    let on_opts = RunOpts::traced(256);
    let off = fig7(
        30.0,
        window,
        &RunOpts {
            timeline: None,
            ..on_opts
        },
    );
    let on = fig7(30.0, window, &on_opts);
    assert_eq!(off.events, on.events, "sampling changed the event count");
    assert_eq!(off.out.points(), on.out.points());
    assert_eq!(off.metrics_json, on.metrics_json);
    assert_eq!(off.trace_json, on.trace_json);
    assert!(off.timeline_json.is_none());
    let tl = on.timeline_json.expect("sampling was armed");
    mpichgq_apps::qtop::check(&tl)
        .unwrap_or_else(|errs| panic!("fig7 timeline fails qtop --check: {errs:?}"));
}

/// The flight-recorder JSON schema pins `key` as u64 and `value` as i64
/// (see `FlightRecorder::write_json`): the full u64 key range and negative
/// values must survive a parse round-trip without narrowing.
#[test]
fn flight_recorder_json_key_and_value_types_round_trip() {
    let mut fr = FlightRecorder::default();
    fr.enable(8);
    fr.record(SimTime::from_nanos(5), "probe", u64::MAX, -42);
    fr.record(SimTime::from_nanos(9), "probe", 0, i64::MIN);
    let mut w = JsonWriter::new();
    fr.write_json(&mut w);
    let doc = parse(&w.finish()).expect("recorder snapshot parses");
    let events = doc.get("events").unwrap().as_array().unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("t_ns").unwrap().as_u64(), Some(5));
    assert_eq!(events[0].get("kind").unwrap().as_str(), Some("probe"));
    assert_eq!(events[0].get("key").unwrap().as_u64(), Some(u64::MAX));
    assert_eq!(events[0].get("value").unwrap().as_i64(), Some(-42));
    assert_eq!(events[1].get("value").unwrap().as_i64(), Some(i64::MIN));
    // The asymmetry is intentional: a u64-range key must NOT be readable
    // as i64, and the negative value must not alias into u64 range.
    assert_eq!(events[0].get("key").unwrap().as_i64(), None);
    assert_eq!(events[0].get("value").unwrap().as_u64(), None);
}

/// Histogram snapshots depend only on the recorded distribution, not on
/// insertion or merge order — byte-identical JSON either way.
#[test]
fn histogram_snapshots_are_order_independent() {
    let values = [0u64, 1, 15, 16, 17, 255, 4096, 1 << 20, u64::MAX, 77, 77];
    let mut fwd = Histogram::new();
    for &v in &values {
        fwd.observe(v);
    }
    let mut rev = Histogram::new();
    for &v in values.iter().rev() {
        rev.observe(v);
    }
    let mut split_a = Histogram::new();
    let mut split_b = Histogram::new();
    for (i, &v) in values.iter().enumerate() {
        if i % 2 == 0 {
            split_a.observe(v);
        } else {
            split_b.observe(v);
        }
    }
    split_b.merge(&split_a);
    let snap = |h: &Histogram| {
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        w.finish()
    };
    assert_eq!(snap(&fwd), snap(&rev));
    assert_eq!(snap(&fwd), snap(&split_b));
    assert_eq!(fwd.quantile(0.5), split_b.quantile(0.5));
}
