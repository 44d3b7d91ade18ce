//! Outcomes pinned for the default seed, one per input, read from
//! `expected.txt`. Each line is a run's `# outcome` line without its
//! prefix: the world, the input, and what it produced. Input 0 of seed 0
//! runs each world unperturbed, as its legacy harness does:
//! `fig9_observed` reproduces the event count and phase means of
//! `fig9_combined_run` at the `--fast` timing, and `gara_churn` draws the
//! `broker_churn` op stream. Re-pin only with a change that is meant to
//! alter the simulation.

use crate::common::Outcome;

pub const DEFAULT_SEED: u64 = 0;

const PINNED: &str = include_str!("../expected.txt");

/// The pinned outcome of `input` of `world` on the default seed. An
/// input without a pin yields an empty outcome, which no run matches.
pub fn outcome(world: &str, input: u64) -> Outcome {
    let mut out = Outcome {
        fingerprint: 0,
        events: 0,
        result: Vec::new(),
    };
    let want = format!("input={input}");
    let Some(line) = PINNED.lines().find(|l| {
        let mut f = l.split_whitespace();
        f.next() == Some(world) && f.next() == Some(want.as_str())
    }) else {
        return out;
    };
    for field in line.split_whitespace().skip(2) {
        let Some((name, value)) = field.split_once('=') else {
            continue;
        };
        match name {
            "fingerprint" => {
                out.fingerprint = u64::from_str_radix(value.trim_start_matches("0x"), 16)
                    .expect("pinned fingerprints are hex")
            }
            "events" => out.events = value.parse().expect("pinned event counts are integers"),
            _ => out
                .result
                .push((name, value.parse().expect("pinned results are numbers"))),
        }
    }
    out
}
