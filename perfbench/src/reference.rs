//! The host-speed reference: a fixed kernel the benchmark runs between
//! repetitions, so each repetition's timings can be read relative to how
//! fast the host was at that moment.
//!
//! On a shared host the same repetition's host time moves between fast
//! and slow phases lasting seconds, and its level drifts by tens of
//! percent over minutes as other tenants contend for the cores, caches
//! and memory. The kernel churns a `BTreeMap` of boxed values — branchy
//! searches, dependent loads through freshly allocated nodes, allocator
//! traffic — which is the kind of work the simulator and the GARA slot
//! tables do, so those phases slow it about as much as they slow a
//! repetition and the ratio of the two cancels most of the drift. Of the
//! candidate kernels tried (a pointer chase over 8 MB, random table
//! updates, a binary heap, an array-backed search tree, a toy event loop,
//! this map with and without boxed values) it tracked both workloads
//! best; the pointer chase, a pure memory latency probe, tracked worst.
//! The kernel is the benchmark's own code and never changes with the
//! program, so a change that makes the program slower raises the ratio
//! by the same factor.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Inserts per run; every second insert is followed by a removal.
const OPS: u64 = 100_000;
/// Keys are drawn from `0..=KEYS`, so about half the removals hit.
const KEYS: u64 = 0xF_FFFF;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run the kernel once; returns its host seconds. Every run does the
/// same work, and its result feeds `black_box` so it cannot be
/// optimised away.
pub fn run() -> f64 {
    let t = Instant::now();
    let mut s = 0x2545_F491_4F6C_DD1D;
    let mut acc = 0u64;
    let mut map = BTreeMap::new();
    for i in 0..OPS {
        map.insert(xorshift(&mut s) & KEYS, Box::new(i));
        if i % 2 == 0 {
            if let Some(v) = map.remove(&(xorshift(&mut s) & KEYS)) {
                acc = acc.wrapping_add(*v);
            }
        }
    }
    drop(black_box(map));
    black_box(acc);
    t.elapsed().as_secs_f64()
}
