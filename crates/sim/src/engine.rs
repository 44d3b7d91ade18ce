//! The discrete-event engine: a time-ordered event queue.
//!
//! The engine is deliberately minimal and generic over the event type `E`;
//! the world model (nodes, links, stacks) lives in higher crates and drives
//! the engine with a pop-dispatch loop. Ties in time are broken by insertion
//! order (a monotonic sequence number), which makes runs deterministic.
//!
//! The queue is a calendar queue in the style of Brown (CACM 1988): a
//! power-of-two ring of time buckets with amortized O(1) enqueue/dequeue,
//! the structure ns-2 adopted for exactly this packet-event workload.
//! Bucket width and count adapt to the observed event density. Its
//! contract — the earliest `(time, seq)` pops first — is checked against a
//! plain `BinaryHeap` reference model in `tests/scheduler_equivalence.rs`.
//!
//! Cancellation is not supported directly; users attach generation counters
//! to their events and ignore stale ones on delivery (lazy cancellation).
//! This is both simpler and faster than tombstoning entries.

use crate::time::{SimDelta, SimTime};
use std::collections::VecDeque;

/// The event-queue backend an [`Engine`] uses. The calendar queue is the
/// only one; the enum remains so callers that name it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Bucketed calendar queue (timing wheel with adaptive width).
    #[default]
    Calendar,
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

/// Cached location of the minimum pending entry in a [`CalendarQueue`],
/// kept eagerly up to date so `peek_time` is O(1) and non-mutating.
#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    seq: u64,
    bucket: usize,
}

/// Calendar queue: a ring of `nbuckets` (power of two) buckets, each
/// covering a `2^wlog`-nanosecond window of the time axis; an event at `t`
/// lives in bucket `(t >> wlog) & (nbuckets - 1)`. Entries within a bucket
/// are kept sorted ascending by `(at, seq)`, so the bucket front is the
/// bucket minimum, and — because equal timestamps always map to the same
/// bucket — FIFO tie order is preserved structurally.
///
/// A two-tier variant (far-future events parked in an overflow heap) was
/// prototyped and benchmarked during development; it lost to this simple
/// single-tier design on every workload in `bench_engine` — the migration
/// double-handling and geometry feedback loops cost more than the sparse
/// mid-bucket inserts they avoided — so the simple design stays.
struct CalendarQueue<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    /// log2 of the bucket width in nanoseconds.
    wlog: u32,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    len: usize,
    head: Option<Head>,
    /// Timestamp of the last dequeued entry (ns), for gap statistics.
    last_pop_ns: u64,
    /// Exponential moving average of inter-pop gaps (ns); sizes bucket width.
    avg_gap_ns: u64,
    /// Dequeues since the last rebuild that fell through the one-year scan
    /// to a full direct search — a signal the bucket width is mismatched.
    fallback_scans: u32,
    stats: CalendarStats,
}

/// Lifetime operation counters of an [`Engine`]'s calendar queue. They are
/// published as the `engine.calendar.*` metrics and read by the benchmark's
/// per-layer split.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalendarStats {
    /// Full re-bucketing passes.
    pub rebuilds: u64,
    /// Pops that fell through the one-year scan to a direct search.
    pub fallbacks: u64,
    /// Total bucket windows examined across all pop scans.
    pub scan_steps: u64,
    /// Pushes that could not append and had to binary-search the bucket.
    pub slow_pushes: u64,
}

const MIN_BUCKETS: usize = 32;
const MAX_BUCKETS: usize = 1 << 20;
/// Initial bucket width: 2^10 ns ≈ 1 µs, a typical packet-event gap.
const INIT_WLOG: u32 = 10;
const MAX_WLOG: u32 = 44; // ~4.8 hours per bucket; beyond this, width stops helping.

impl<E> CalendarQueue<E> {
    fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            wlog: INIT_WLOG,
            mask: (MIN_BUCKETS - 1) as u64,
            len: 0,
            head: None,
            last_pop_ns: 0,
            avg_gap_ns: 1 << INIT_WLOG,
            fallback_scans: 0,
            stats: CalendarStats::default(),
        }
    }

    #[inline]
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.as_nanos() >> self.wlog) & self.mask) as usize
    }

    fn push(&mut self, e: Entry<E>) {
        if !self.place(e) {
            self.stats.slow_pushes += 1;
        }
        self.len += 1;
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// File `e` in its bucket, keeping the bucket sorted and the head
    /// current. Returns `false` when `e` could not append and had to
    /// binary-search its position.
    #[inline]
    fn place(&mut self, e: Entry<E>) -> bool {
        let idx = self.bucket_of(e.at);
        if self.head.is_none_or(|h| (e.at, e.seq) < (h.at, h.seq)) {
            self.head = Some(Head {
                at: e.at,
                seq: e.seq,
                bucket: idx,
            });
        }
        let b = &mut self.buckets[idx];
        // Fast path: appending in sorted position (monotone seq means equal
        // timestamps always append, preserving FIFO ties).
        if b.back()
            .is_none_or(|last| (last.at, last.seq) < (e.at, e.seq))
        {
            b.push_back(e);
            true
        } else {
            let pos = b.partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
            b.insert(pos, e);
            false
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let h = self.head?;
        let e = self.buckets[h.bucket]
            .pop_front()
            .expect("head points at empty bucket");
        debug_assert!(e.at == h.at && e.seq == h.seq);
        self.len -= 1;
        let at_ns = e.at.as_nanos();
        let gap = at_ns.saturating_sub(self.last_pop_ns);
        self.last_pop_ns = at_ns;
        self.avg_gap_ns =
            (((self.avg_gap_ns as u128) * 7 + gap as u128) / 8).min(u64::MAX as u128) as u64;
        self.head = self.find_next(e.at);
        let nb = self.buckets.len();
        if (self.len < nb / 8 && nb > MIN_BUCKETS) || self.fallback_scans >= 64 {
            self.rebuild();
        }
        Some(e)
    }

    /// Locate the minimum remaining entry, starting the scan at the bucket
    /// window containing `from` (the timestamp just dequeued; all remaining
    /// entries are ≥ `from`). Scans at most one full ring revolution of
    /// windows in increasing time order, then falls back to a direct
    /// min-of-fronts search for far-future events.
    fn find_next(&mut self, from: SimTime) -> Option<Head> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let virt = from.as_nanos() >> self.wlog;
        for k in 0..nb {
            // Windows are scanned in increasing time order, so the first
            // bucket front that falls inside its window is the global min.
            self.stats.scan_steps += 1;
            let Some(v) = virt.checked_add(k) else { break };
            let i = (v & self.mask) as usize;
            let top: u128 = ((v as u128) + 1) << self.wlog;
            if let Some(f) = self.buckets[i].front() {
                if (f.at.as_nanos() as u128) < top {
                    return Some(Head {
                        at: f.at,
                        seq: f.seq,
                        bucket: i,
                    });
                }
            }
        }
        // Nothing within one ring revolution: direct search. Frequent hits
        // here mean the bucket width is too small for the event spacing;
        // rebuild (triggered by the caller) will widen it.
        self.fallback_scans += 1;
        self.stats.fallbacks += 1;
        let mut best: Option<Head> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(f) = b.front() {
                if best.is_none_or(|h| (f.at, f.seq) < (h.at, h.seq)) {
                    best = Some(Head {
                        at: f.at,
                        seq: f.seq,
                        bucket: i,
                    });
                }
            }
        }
        best
    }

    /// Re-bucket every entry with a bucket count proportional to occupancy
    /// and a width tracking the observed inter-pop gap.
    fn rebuild(&mut self) {
        self.fallback_scans = 0;
        self.stats.rebuilds += 1;
        let nbuckets = self
            .len
            .max(MIN_BUCKETS)
            .next_power_of_two()
            .min(MAX_BUCKETS);
        // Aim for roughly one average gap per bucket, so consecutive pops
        // land in nearby buckets and the year scan stays short.
        let gap = self.avg_gap_ns.max(1);
        let wlog = (63 - gap.leading_zeros()).min(MAX_WLOG);
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            entries.extend(b.drain(..));
        }
        self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
        self.mask = (nbuckets - 1) as u64;
        self.wlog = wlog;
        self.head = None;
        for e in entries {
            self.place(e);
        }
    }
}

/// A deterministic discrete-event queue.
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<E>,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            processed: 0,
        }
    }

    /// The calendar queue's operation counters.
    pub fn calendar_stats(&self) -> CalendarStats {
        self.queue.stats
    }

    /// Current simulation time: the timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `ev` at absolute time `at`.
    ///
    /// Panics if `at` is in the past: the simulation never travels backwards.
    pub fn schedule(&mut self, at: SimTime, ev: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, ev });
    }

    /// Schedule `ev` after delay `d` from the current time.
    #[inline]
    pub fn schedule_in(&mut self, d: SimDelta, ev: E) {
        self.schedule(self.now + d, ev);
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.head.map(|h| h.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.queue.pop()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.processed += 1;
        Some((e.at, e.ev))
    }

    /// Pop the next event only if it is due at or before `limit`.
    ///
    /// If the next event is later than `limit`, the clock advances to `limit`
    /// and `None` is returned (so that `now()` reflects the horizon reached).
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => {
                if self.now < limit {
                    self.now = limit;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(3), 3);
        e.schedule(SimTime::from_secs(1), 1);
        e.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e: Engine<u32> = Engine::new();
        let t = SimTime::from_millis(5);
        for v in 0..10 {
            e.schedule(t, v);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_limit_and_advances_clock() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(10), 10);
        assert_eq!(e.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(
            e.pop_until(SimTime::from_secs(10)),
            Some((SimTime::from_secs(10), 10))
        );
    }

    #[test]
    fn pop_until_on_empty_advances_to_limit() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.pop_until(SimTime::from_secs(7)), None);
        assert_eq!(e.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(2), 1);
        e.pop();
        e.schedule(SimTime::from_secs(1), 2);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::from_secs(1), 1);
        e.pop();
        e.schedule_in(SimDelta::from_secs(1), 2);
        assert_eq!(e.pop().unwrap().0, SimTime::from_secs(2));
    }

    #[test]
    fn calendar_handles_far_future_and_resize() {
        let mut e: Engine<u64> = Engine::new();
        // Dense near-term burst (forces growth), one far-future timer
        // (forces the direct-search fallback), and interleaved pops.
        for i in 0..10_000u64 {
            e.schedule(SimTime::from_nanos(i * 3), i);
        }
        e.schedule(SimTime::from_secs(3_600), u64::MAX);
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, v)) = e.pop() {
            assert!(t >= last.0);
            last = (t, v);
            n += 1;
        }
        assert_eq!(n, 10_001);
        assert_eq!(last, (SimTime::from_secs(3_600), u64::MAX));
    }

    #[test]
    fn calendar_handles_max_timestamp() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule(SimTime::MAX, 1);
        e.schedule(SimTime::ZERO, 0);
        assert_eq!(e.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(e.pop(), Some((SimTime::MAX, 1)));
        assert_eq!(e.pop(), None);
    }
}
