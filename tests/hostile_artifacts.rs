//! The artifact readers return errors on hostile input instead of
//! panicking, and the timeline reader is exact on well-formed input:
//! every committed `timeline.json` decodes and re-encodes byte for byte,
//! and truncated or number-mutated copies of a timeline and of a
//! lifecycle trace never panic `qtop` or `qtrace`.

use mpichgq_apps::{qtop, qtrace};
use mpichgq_bench::{fig7, RunOpts, TRACE_CAPACITY};
use mpichgq_obs::Timeline;
use mpichgq_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

#[test]
fn every_committed_timeline_round_trips_byte_for_byte() {
    let mut n = 0;
    for entry in std::fs::read_dir(RESULTS).unwrap() {
        let path = entry.unwrap().path().join("timeline.json");
        let Ok(doc) = std::fs::read_to_string(&path) else {
            continue;
        };
        let tl = Timeline::from_json(&doc).unwrap_or_else(|e| panic!("{path:?}: {e:?}"));
        assert!(tl.to_json() == doc, "{path:?} does not round-trip");
        n += 1;
    }
    assert!(n >= 5, "found only {n} committed timelines");
}

/// Truncate `doc` (when `cut` is set) or overwrite some of its digit
/// runs with 0, 2^63 or `u64::MAX`: the document still parses, but sums
/// over two edited fields overflow.
fn mutate(doc: &str, cut: Option<u64>, edits: &[(u64, usize)]) -> String {
    if let Some(c) = cut {
        return doc[..(c % doc.len() as u64) as usize].to_string();
    }
    let b = doc.as_bytes();
    let digit = |i: usize| b[i].is_ascii_digit();
    let starts: Vec<usize> = (0..b.len())
        .filter(|&i| digit(i) && (i == 0 || !digit(i - 1)))
        .collect();
    let mut picks = BTreeMap::new();
    for &(k, v) in edits {
        let start = starts[(k % starts.len() as u64) as usize];
        picks.insert(
            start,
            ["0", "9223372036854775808", "18446744073709551615"][v],
        );
    }
    let mut out = doc.to_string();
    for (&start, with) in picks.iter().rev() {
        let end = (start..b.len()).find(|&i| !digit(i)).unwrap_or(b.len());
        out.replace_range(start..end, with);
    }
    out
}

static FIG1_TIMELINE: OnceLock<String> = OnceLock::new();
/// A fig7 lifecycle trace (traces are regenerated, not committed).
static FIG7_TRACE: OnceLock<String> = OnceLock::new();

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn mutated_timelines_never_panic_the_reader(
        truncate in any::<bool>(),
        cut in any::<u64>(),
        edits in proptest::collection::vec((any::<u64>(), 0usize..3), 1..64),
    ) {
        let doc = FIG1_TIMELINE.get_or_init(|| {
            std::fs::read_to_string(format!("{RESULTS}/fig1/timeline.json")).unwrap()
        });
        let doc = mutate(doc, truncate.then_some(cut), &edits);
        prop_assert_eq!(qtop::check(&doc).is_ok(), qtop::summarize(&doc, 5).is_ok());
    }

    #[test]
    fn mutated_traces_never_panic_the_reader(
        truncate in any::<bool>(),
        cut in any::<u64>(),
        edits in proptest::collection::vec((any::<u64>(), 0usize..3), 1..64),
    ) {
        let doc = FIG7_TRACE.get_or_init(|| {
            fig7(10.0, SimTime::from_secs(1), &RunOpts::traced(TRACE_CAPACITY)).trace_json
        });
        let doc = mutate(doc, truncate.then_some(cut), &edits);
        let _ = (qtrace::check(&doc), qtrace::summarize(&doc, 5));
    }
}
