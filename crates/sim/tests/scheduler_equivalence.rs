//! Property: the engine's calendar queue is observably identical to a
//! plain `BinaryHeap` reference scheduler. Any interleaving of
//! `schedule` / `pop` / `pop_until` — including same-timestamp bursts,
//! far-future timers, and horizons that land between events — produces
//! byte-identical pop sequences, clocks, and processed counts.

use mpichgq_sim::{Engine, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference model: the earliest `(time, seq)` pops first, straight
/// off a min-heap, with the engine's clock and counter semantics.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    now: SimTime,
    seq: u64,
    processed: u64,
}

/// The scheduling contract the engine and the reference share.
trait Scheduler {
    fn now(&self) -> SimTime;
    fn len(&self) -> usize;
    fn processed(&self) -> u64;
    fn peek_time(&self) -> Option<SimTime>;
    fn schedule(&mut self, at: SimTime, v: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)>;
}

impl Scheduler for Reference {
    fn now(&self) -> SimTime {
        self.now
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn processed(&self) -> u64 {
        self.processed
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
    fn schedule(&mut self, at: SimTime, v: u64) {
        self.heap.push(Reverse((at, self.seq, v)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, _, v)) = self.heap.pop()?;
        self.now = at;
        self.processed += 1;
        Some((at, v))
    }
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => {
                self.now = self.now.max(limit);
                None
            }
        }
    }
}

impl Scheduler for Engine<u64> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn len(&self) -> usize {
        Engine::len(self)
    }
    fn processed(&self) -> u64 {
        Engine::processed(self)
    }
    fn peek_time(&self) -> Option<SimTime> {
        Engine::peek_time(self)
    }
    fn schedule(&mut self, at: SimTime, v: u64) {
        Engine::schedule(self, at, v)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        Engine::pop(self)
    }
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        Engine::pop_until(self, limit)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule a burst of events `delta` ns after the current clock.
    /// `burst` > 1 exercises FIFO tie-breaking at one timestamp.
    Schedule { delta: u64, burst: u8 },
    /// Pop one event.
    Pop,
    /// Pop with a horizon `delta` ns past the current clock.
    PopUntil { delta: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..2_000, 1u8..6).prop_map(|(delta, burst)| Op::Schedule { delta, burst }),
        // Occasional far-future timers stress the calendar's fallback scan.
        (1_000_000_000u64..30_000_000_000, 1u8..2)
            .prop_map(|(delta, burst)| Op::Schedule { delta, burst }),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..3_000).prop_map(|delta| Op::PopUntil { delta }),
    ]
}

/// Run one op against a scheduler, returning an observation string
/// capturing everything externally visible about the step.
fn step(e: &mut impl Scheduler, op: &Op, payload: &mut u64) -> String {
    match op {
        Op::Schedule { delta, burst } => {
            for _ in 0..*burst {
                let at = SimTime::from_nanos(e.now().as_nanos().saturating_add(*delta));
                e.schedule(at, *payload);
                *payload += 1;
            }
            format!("sched len={}", e.len())
        }
        Op::Pop => format!("pop {:?} now={} peek={:?}", e.pop(), e.now(), e.peek_time()),
        Op::PopUntil { delta } => {
            let limit = SimTime::from_nanos(e.now().as_nanos().saturating_add(*delta));
            format!(
                "pop_until {:?} now={} peek={:?}",
                e.pop_until(limit),
                e.now(),
                e.peek_time()
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn calendar_matches_heap_observably(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut heap = Reference::default();
        let mut cal: Engine<u64> = Engine::new();
        let (mut ph, mut pc) = (0u64, 0u64);
        for (i, op) in ops.iter().enumerate() {
            let oh = step(&mut heap, op, &mut ph);
            let oc = step(&mut cal, op, &mut pc);
            prop_assert_eq!(&oh, &oc, "divergence at op {}: {:?}", i, op);
        }
        // Drain both to the end: full pop sequences must match too.
        loop {
            let h = heap.pop();
            let c = cal.pop();
            prop_assert_eq!(h, c);
            if h.is_none() {
                break;
            }
        }
        prop_assert_eq!(heap.processed(), cal.processed());
        prop_assert_eq!(heap.now(), cal.now());
    }
}

/// A dense deterministic workload with adversarial structure: interleaved
/// bursts, identical timestamps across bursts, and a resize-forcing ramp.
#[test]
fn calendar_matches_heap_on_dense_ramp() {
    let mut heap = Reference::default();
    let mut cal: Engine<u64> = Engine::new();
    // Multiplicative-hash timestamps: scattered, with collisions.
    for i in 0..50_000u64 {
        let t = SimTime::from_nanos((i.wrapping_mul(2_654_435_761)) % 1_000_000);
        heap.schedule(t, i);
        cal.schedule(t, i);
    }
    loop {
        let h = heap.pop();
        assert_eq!(h, cal.pop());
        if h.is_none() {
            break;
        }
    }
    assert_eq!(heap.processed(), 50_000);
    assert_eq!(cal.processed(), 50_000);
}
