//! Peak live heap of one repetition, counted by the global allocator.
//! Unlike the process's peak resident set, which keeps the high-water
//! mark of every earlier repetition and of the allocator's retained
//! pages, this repeats exactly for a given input.
//!
//! Counting is switched on only for the repetitions that measure the
//! heap, which are not timed; in every other repetition the allocator
//! costs one relaxed load of a flag that is never written meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// The system allocator, with live and peak byte counts while counting
/// is on. The counters publish no other data, so relaxed ordering
/// suffices.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    if !ON.load(Relaxed) {
        return;
    }
    let now = LIVE.fetch_add(by, Relaxed) + by;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(by: usize) {
    if ON.load(Relaxed) {
        // Blocks allocated before counting began may be freed while it is
        // on: the live count saturates at zero instead of wrapping.
        let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(by)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Count from zero until [`stop`]: the peak is then the most bytes
/// allocated and not yet freed at any moment in between.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting and return the peak since [`start`], in bytes.
pub fn stop() -> usize {
    ON.store(false, Relaxed);
    PEAK.load(Relaxed)
}
