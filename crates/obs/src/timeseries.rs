//! Deterministic fixed-interval time series: the sampled middle layer
//! between end-of-run registry snapshots and per-packet lifecycle traces.
//!
//! A [`Timeline`] holds named series sampled on a fixed wall-of-sim-time
//! grid. Counter series are absolute monotone `u64` samples; gauge series
//! are `f64`. The JSON writer delta-encodes timestamps and counter values
//! (the grid makes deltas tiny and repetitive), sorts series by name, and
//! uses the same shortest-round-trip float formatting as the registry
//! snapshot — so a timeline's JSON is a pure function of its samples,
//! byte-stable across runs and platforms.
//!
//! Shard merge mirrors [`crate::Registry::merge_from`]: series are keyed
//! by name, and merging sums the per-shard step functions pointwise over
//! the union of their sample timestamps (a shard contributes its value-so-
//! far at every instant; before its first sample it contributes zero).
//! Pointwise sum over a timestamp union is associative and commutative,
//! so the merged timeline is independent of shard merge order — that is
//! what makes 1-thread and N-thread runs byte-identical.

use crate::json::{parse, JsonValue, JsonWriter};
use mpichgq_sim::FxHashMap;

/// What a series measures: a cumulative monotone count or a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Absolute monotone totals (samples never decrease).
    Counter,
    /// Instantaneous levels (queue depths, bucket fills, burn rates).
    Gauge,
}

#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    /// Set when a dedicated sampler owns this series. The registry sweep
    /// skips live series, so a stale registry copy published mid-run can
    /// never push a non-monotone sample under a sampler-owned name.
    live: bool,
    t_ns: Vec<u64>,
    /// Counter samples (absolute totals); empty for gauges.
    u: Vec<u64>,
    /// Gauge samples; empty for counters.
    f: Vec<f64>,
}

impl Series {
    fn new(kind: SeriesKind, live: bool) -> Series {
        Series {
            kind,
            live,
            t_ns: Vec::new(),
            u: Vec::new(),
            f: Vec::new(),
        }
    }
}

/// A set of named series on one sampling grid. See the module docs.
#[derive(Debug, Default)]
pub struct Timeline {
    interval_ns: u64,
    names: Vec<String>,
    series: Vec<Series>,
    ids: FxHashMap<String, u32>,
}

impl Timeline {
    /// An empty timeline sampling every `interval_ns` nanoseconds.
    pub fn new(interval_ns: u64) -> Timeline {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Timeline {
            interval_ns,
            ..Timeline::default()
        }
    }

    /// The sampling grid spacing in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Number of named series recorded so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    fn series_mut(&mut self, name: &str, kind: SeriesKind, live: bool) -> &mut Series {
        let idx = match self.ids.get(name) {
            Some(&i) => i as usize,
            None => {
                let i = self.series.len() as u32;
                self.ids.insert(name.to_owned(), i);
                self.names.push(name.to_owned());
                self.series.push(Series::new(kind, live));
                i as usize
            }
        };
        let s = &mut self.series[idx];
        assert_eq!(
            s.kind, kind,
            "series {name} already registered with the other kind"
        );
        s
    }

    fn push_at(s: &mut Series, name: &str, t_ns: u64) {
        if let Some(&last) = s.t_ns.last() {
            assert!(
                t_ns > last,
                "series {name}: timestamp {t_ns} not after {last}"
            );
        }
        s.t_ns.push(t_ns);
    }

    /// Record a counter sample from a dedicated sampler. Marks the series
    /// live (the registry sweep will skip it from now on). Panics if the
    /// timestamp does not advance or the value regresses.
    pub fn push_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let s = self.series_mut(name, SeriesKind::Counter, true);
        s.live = true;
        if let Some(&prev) = s.u.last() {
            assert!(v >= prev, "counter series {name} regressed: {prev} -> {v}");
        }
        Self::push_at(s, name, t_ns);
        s.u.push(v);
    }

    /// Record a gauge sample from a dedicated sampler (marks the series
    /// live). Panics if the timestamp does not advance.
    pub fn push_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let s = self.series_mut(name, SeriesKind::Gauge, true);
        s.live = true;
        Self::push_at(s, name, t_ns);
        s.f.push(v);
    }

    /// Record a counter sample from the registry sweep. No-op when a
    /// dedicated sampler owns the series (see [`Timeline::push_counter`])
    /// or when `t_ns` was already sampled.
    pub fn sweep_counter(&mut self, name: &str, t_ns: u64, v: u64) {
        let s = self.series_mut(name, SeriesKind::Counter, false);
        if s.live || s.t_ns.last() == Some(&t_ns) {
            return;
        }
        if let Some(&prev) = s.u.last() {
            assert!(v >= prev, "counter series {name} regressed: {prev} -> {v}");
        }
        Self::push_at(s, name, t_ns);
        s.u.push(v);
    }

    /// Record a gauge sample from the registry sweep (see
    /// [`Timeline::sweep_counter`] for the live-series rule).
    pub fn sweep_gauge(&mut self, name: &str, t_ns: u64, v: f64) {
        let s = self.series_mut(name, SeriesKind::Gauge, false);
        if s.live || s.t_ns.last() == Some(&t_ns) {
            return;
        }
        Self::push_at(s, name, t_ns);
        s.f.push(v);
    }

    /// Series names in registration order (JSON output sorts them).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// A counter series' `(timestamps, values)` columns, if it exists.
    pub fn counter(&self, name: &str) -> Option<(&[u64], &[u64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Counter).then_some((&s.t_ns[..], &s.u[..]))
    }

    /// A gauge series' `(timestamps, values)` columns, if it exists.
    pub fn gauge(&self, name: &str) -> Option<(&[u64], &[f64])> {
        let s = &self.series[*self.ids.get(name)? as usize];
        (s.kind == SeriesKind::Gauge).then_some((&s.t_ns[..], &s.f[..]))
    }

    /// The last sample of a counter series, if any.
    pub fn last_counter(&self, name: &str) -> Option<u64> {
        self.counter(name).and_then(|(_, v)| v.last().copied())
    }

    /// The counter's value at `t_ns` under step semantics: the most recent
    /// sample at or before `t_ns`, or 0 before the first sample. The burn
    /// calculator uses this to read rates over trailing windows.
    pub fn counter_at(&self, name: &str, t_ns: u64) -> u64 {
        let Some((t, v)) = self.counter(name) else {
            return 0;
        };
        match t.partition_point(|&x| x <= t_ns) {
            0 => 0,
            i => v[i - 1],
        }
    }

    /// The maximum sample of a gauge series, if it has any samples.
    pub fn gauge_peak(&self, name: &str) -> Option<f64> {
        let (_, v) = self.gauge(name)?;
        v.iter().copied().reduce(f64::max)
    }

    /// Fold `other` into `self`, series by name: the merged series is the
    /// pointwise sum of the two step functions over the union of their
    /// sample timestamps (a side contributes 0 before its first sample).
    /// Order-independent, like [`crate::Registry::merge_from`]; both
    /// timelines must share a grid.
    pub fn merge_from(&mut self, other: &Timeline) {
        assert_eq!(
            self.interval_ns, other.interval_ns,
            "cannot merge timelines with different sampling grids"
        );
        for (name, o) in other.names.iter().zip(&other.series) {
            let s = self.series_mut(name, o.kind, o.live);
            s.live |= o.live;
            let merged = merge_series(s, o);
            *s = merged;
        }
    }

    /// Serialize into `w`. Schema:
    ///
    /// ```json
    /// {"timeline":1,"interval_ns":N,"series":{
    ///   "name":{"kind":"counter","t0_ns":T,"dt_ns":[..],"v0":V,"dv":[..]},
    ///   "name":{"kind":"gauge","t0_ns":T,"dt_ns":[..],"values":[..]}}}
    /// ```
    ///
    /// Series are name-sorted; `dt_ns`/`dv` are successive deltas (one
    /// fewer entry than samples). Empty series serialize with `t0_ns`
    /// null and empty delta arrays.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("timeline");
        w.u64(1);
        w.key("interval_ns");
        w.u64(self.interval_ns);
        w.key("series");
        w.begin_object();
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        order.sort_by(|&a, &b| self.names[a].cmp(&self.names[b]));
        for i in order {
            let s = &self.series[i];
            w.key(&self.names[i]);
            w.begin_object();
            w.key("kind");
            w.string(match s.kind {
                SeriesKind::Counter => "counter",
                SeriesKind::Gauge => "gauge",
            });
            w.key("t0_ns");
            match s.t_ns.first() {
                Some(&t0) => w.u64(t0),
                None => w.raw("null"),
            }
            w.key("dt_ns");
            w.begin_array();
            for pair in s.t_ns.windows(2) {
                w.u64(pair[1] - pair[0]);
            }
            w.end_array();
            match s.kind {
                SeriesKind::Counter => {
                    w.key("v0");
                    match s.u.first() {
                        Some(&v0) => w.u64(v0),
                        None => w.raw("null"),
                    }
                    w.key("dv");
                    w.begin_array();
                    for pair in s.u.windows(2) {
                        w.u64(pair[1] - pair[0]);
                    }
                    w.end_array();
                }
                SeriesKind::Gauge => {
                    w.key("values");
                    w.begin_array();
                    for &v in &s.f {
                        w.f64(v);
                    }
                    w.end_array();
                }
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }

    /// [`Timeline::write_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Decode a [`Timeline::write_json`] document: the one reader of the
    /// format. Validates the whole document and returns every problem
    /// found: the version tag, a positive interval, a non-empty,
    /// strictly name-sorted series map, and per series a known kind, a
    /// first sample, strictly increasing timestamps, one value per sample,
    /// monotone counters and finite gauges. Undoing the delta encoding
    /// uses checked arithmetic, so a hostile document is an error, never
    /// a panic. For every timeline without empty series,
    /// `Timeline::from_json(&t.to_json())?.to_json() == t.to_json()`.
    pub fn from_json(json: &str) -> Result<Timeline, Vec<String>> {
        let doc = parse(json).map_err(|e| vec![format!("not valid JSON: {e}")])?;
        let mut errs = Vec::new();
        if doc.get("timeline").and_then(JsonValue::as_u64) != Some(1) {
            errs.push("missing or unknown timeline version (want 1)".to_string());
        }
        let interval_ns = doc.get("interval_ns").and_then(JsonValue::as_u64);
        if interval_ns.is_none_or(|i| i == 0) {
            errs.push("interval_ns missing or zero".to_string());
        }
        let Some(members) = doc.get("series").and_then(JsonValue::members) else {
            errs.push("missing series object".to_string());
            return Err(errs);
        };
        if members.is_empty() {
            errs.push("series object is empty (sampler never ticked?)".to_string());
        }
        for pair in members.windows(2) {
            if pair[0].0 >= pair[1].0 {
                errs.push(format!(
                    "series names not strictly sorted: {:?} then {:?}",
                    pair[0].0, pair[1].0
                ));
            }
        }
        let mut tl = Timeline::new(interval_ns.unwrap_or(1).max(1));
        for (name, v) in members {
            match decode_series(v) {
                Ok(s) => {
                    tl.ids.insert(name.clone(), tl.series.len() as u32);
                    tl.names.push(name.clone());
                    tl.series.push(s);
                }
                Err(e) => errs.extend(e.into_iter().map(|e| format!("series {name}: {e}"))),
            }
        }
        errs.is_empty().then_some(tl).ok_or(errs)
    }
}

/// Decode one series object of a timeline document (see
/// [`Timeline::from_json`]), collecting every problem found.
fn decode_series(v: &JsonValue) -> Result<Series, Vec<String>> {
    let kind = match v.get("kind").and_then(JsonValue::as_str) {
        Some("counter") => SeriesKind::Counter,
        Some("gauge") => SeriesKind::Gauge,
        other => return Err(vec![format!("unknown kind {other:?}")]),
    };
    let Some(dt) = v.get("dt_ns").and_then(JsonValue::as_array) else {
        return Err(vec!["missing dt_ns".to_string()]);
    };
    let Some(t0) = v.get("t0_ns").and_then(JsonValue::as_u64) else {
        return Err(vec!["empty (null t0_ns)".to_string()]);
    };
    let mut errs = Vec::new();
    let mut s = Series::new(kind, false);
    match undelta(t0, dt, 1) {
        Ok(t) => s.t_ns = t,
        Err(e) => errs.push(format!("dt_ns {e}")),
    }
    let samples = dt.len() + 1;
    match kind {
        SeriesKind::Counter => match (
            v.get("v0").and_then(JsonValue::as_u64),
            v.get("dv").and_then(JsonValue::as_array),
        ) {
            (None, _) => errs.push("counter without v0".into()),
            (_, None) => errs.push("counter without dv".into()),
            (Some(v0), Some(dv)) if dv.len() + 1 == samples => match undelta(v0, dv, 0) {
                Ok(u) => s.u = u,
                Err(e) => errs.push(format!("dv {e}")),
            },
            (_, Some(dv)) => errs.push(format!(
                "dv length {} != dt_ns length {}",
                dv.len(),
                dt.len()
            )),
        },
        SeriesKind::Gauge => match v.get("values").and_then(JsonValue::as_array) {
            None => errs.push("gauge without values".into()),
            Some(vals) if vals.len() == samples => {
                match vals
                    .iter()
                    .map(|x| x.as_f64().filter(|x| x.is_finite()))
                    .collect()
                {
                    Some(f) => s.f = f,
                    None => errs.push("non-numeric gauge value".into()),
                }
            }
            Some(vals) => errs.push(format!(
                "values length {} != sample count {samples}",
                vals.len()
            )),
        },
    }
    errs.is_empty().then_some(s).ok_or(errs)
}

/// Undo one delta-encoded column: `first`, then the running sums of
/// `deltas`, each an integer of at least `min`. The sums are checked, so
/// a hostile document is an error rather than an overflow.
fn undelta(first: u64, deltas: &[JsonValue], min: u64) -> Result<Vec<u64>, &'static str> {
    let mut out = vec![first];
    for d in deltas {
        let d = d.as_u64().filter(|&d| d >= min).ok_or(if min == 0 {
            "has a negative or non-integer entry (counters are monotone)"
        } else {
            "has a non-positive entry (timestamps must strictly increase)"
        })?;
        out.push(out[out.len() - 1].checked_add(d).ok_or("overflows u64")?);
    }
    Ok(out)
}

/// Pointwise step-function sum of two series over their timestamp union.
fn merge_series(a: &Series, b: &Series) -> Series {
    let mut out = Series::new(a.kind, a.live || b.live);
    let (mut i, mut j) = (0usize, 0usize);
    let (mut au, mut bu) = (0u64, 0u64);
    let (mut af, mut bf) = (0f64, 0f64);
    while i < a.t_ns.len() || j < b.t_ns.len() {
        let ta = a.t_ns.get(i).copied().unwrap_or(u64::MAX);
        let tb = b.t_ns.get(j).copied().unwrap_or(u64::MAX);
        let t = ta.min(tb);
        if ta == t {
            match a.kind {
                SeriesKind::Counter => au = a.u[i],
                SeriesKind::Gauge => af = a.f[i],
            }
            i += 1;
        }
        if tb == t {
            match b.kind {
                SeriesKind::Counter => bu = b.u[j],
                SeriesKind::Gauge => bf = b.f[j],
            }
            j += 1;
        }
        out.t_ns.push(t);
        match a.kind {
            SeriesKind::Counter => out.u.push(au + bu),
            SeriesKind::Gauge => out.f.push(af + bf),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline::new(1_000)
    }

    #[test]
    fn json_is_name_sorted_and_delta_encoded() {
        let mut t = tl();
        t.push_counter("b.count", 1_000, 5);
        t.push_counter("b.count", 2_000, 9);
        t.push_gauge("a.level", 1_000, 1.5);
        t.push_gauge("a.level", 2_000, 0.0);
        assert_eq!(
            t.to_json(),
            "{\"timeline\":1,\"interval_ns\":1000,\"series\":{\
             \"a.level\":{\"kind\":\"gauge\",\"t0_ns\":1000,\"dt_ns\":[1000],\
             \"values\":[1.5,0]},\
             \"b.count\":{\"kind\":\"counter\",\"t0_ns\":1000,\"dt_ns\":[1000],\
             \"v0\":5,\"dv\":[4]}}}"
        );
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut t = tl();
        t.push_counter("c", 500, 1);
        t.push_counter("c", 1_500, 1);
        t.push_gauge("g", 500, 0.25);
        let json = t.to_json();
        let back = Timeline::from_json(&json).unwrap();
        assert_eq!(back.counter("c"), Some((&[500, 1_500][..], &[1, 1][..])));
        assert_eq!(back.gauge("g"), Some((&[500][..], &[0.25][..])));
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |offs: u64, scale: u64| {
            let mut t = tl();
            for i in 1..=4u64 {
                t.push_counter("c", offs + i * 1_000, i * scale);
                t.push_gauge("g", offs + i * 1_000, (i * scale) as f64);
            }
            t
        };
        let (a, b, c) = (mk(0, 1), mk(500, 10), mk(250, 100));
        let mut ab = tl();
        for t in [&a, &b, &c] {
            ab.merge_from(t);
        }
        let mut ba = tl();
        for t in [&c, &b, &a] {
            ba.merge_from(t);
        }
        assert_eq!(ab.to_json(), ba.to_json());
    }

    #[test]
    fn merge_sums_step_functions() {
        let mut a = tl();
        a.push_counter("c", 1_000, 2);
        a.push_counter("c", 3_000, 6);
        let mut b = tl();
        b.push_counter("c", 2_000, 10);
        let mut m = tl();
        m.merge_from(&a);
        m.merge_from(&b);
        let (t, v) = m.counter("c").unwrap();
        assert_eq!(t, &[1_000, 2_000, 3_000]);
        assert_eq!(v, &[2, 12, 16]);
        assert_eq!(m.counter_at("c", 999), 0);
        assert_eq!(m.counter_at("c", 2_500), 12);
        assert_eq!(m.counter_at("c", 9_999), 16);
    }

    #[test]
    fn sweep_skips_live_series_and_duplicate_ticks() {
        let mut t = tl();
        t.push_counter("live", 1_000, 7);
        t.sweep_counter("live", 2_000, 3); // stale copy: ignored
        assert_eq!(t.last_counter("live"), Some(7));
        t.sweep_counter("swept", 1_000, 1);
        t.sweep_counter("swept", 1_000, 9); // same tick: ignored
        assert_eq!(t.last_counter("swept"), Some(1));
    }

    #[test]
    fn gauge_peak_tracks_maximum() {
        let mut t = tl();
        t.push_gauge("g", 1_000, 1.0);
        t.push_gauge("g", 2_000, 8.0);
        t.push_gauge("g", 3_000, 2.0);
        assert_eq!(t.gauge_peak("g"), Some(8.0));
        assert_eq!(t.gauge_peak("missing"), None);
    }

    #[test]
    #[should_panic(expected = "regressed")]
    fn counter_regression_panics() {
        let mut t = tl();
        t.push_counter("c", 1_000, 5);
        t.push_counter("c", 2_000, 4);
    }

    #[test]
    #[should_panic(expected = "not after")]
    fn stale_timestamp_panics() {
        let mut t = tl();
        t.push_gauge("g", 2_000, 1.0);
        t.push_gauge("g", 2_000, 2.0);
    }
}
