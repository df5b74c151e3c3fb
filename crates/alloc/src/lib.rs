//! # tweetmob-alloc
//!
//! A counting wrapper around the system allocator, feeding
//! `tweetmob-obs`'s per-span memory gauges.
//!
//! The binary that wants allocation accounting installs it (behind its
//! own feature gate, so release binaries pay nothing by default):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tweetmob_alloc::CountingAlloc = tweetmob_alloc::CountingAlloc;
//! ```
//!
//! Every allocation/deallocation updates four process-wide relaxed
//! atomics: total allocation count, total bytes ever allocated, live
//! bytes, and the high-water mark of live bytes. [`snapshot`] reads
//! them; `tweetmob-obs` (with its `alloc` feature on) snapshots at span
//! open and close and publishes `alloc/<span>/{allocations,peak_bytes}`
//! gauges. When no [`CountingAlloc`] is installed the statics stay
//! zero and [`is_counting`] reports `false`, so the gauges never
//! appear.
//!
//! Counts are execution-shape data, not results: allocation totals
//! vary with thread count and allocator behaviour, which is why the
//! metrics redaction zeroes every `alloc/` gauge.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations since process start.
    pub allocations: u64,
    /// Total bytes ever allocated (never decremented).
    pub allocated_bytes: u64,
    /// Bytes currently live.
    pub current_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
}

/// Reads the current counters. All-zero unless a [`CountingAlloc`] is
/// installed as the global allocator.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        current_bytes: CURRENT_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Whether a [`CountingAlloc`] is live in this process. Detected by the
/// counters moving — any Rust program allocates long before user code
/// asks this question.
#[must_use]
pub fn is_counting() -> bool {
    ALLOCATIONS.load(Ordering::Relaxed) > 0
}

fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = CURRENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    CURRENT_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The counting allocator: [`System`] plus four relaxed atomic updates
/// per call. Install with `#[global_allocator]`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

// SAFETY: every method delegates to `System`, which upholds the
// GlobalAlloc contract; the counter updates touch only atomics and
// never allocate, so no reentrancy is possible.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Count a realloc as one allocation of the new size and a
            // free of the old, keeping live-byte accounting exact.
            on_alloc(new_size);
            on_dealloc(layout.size());
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install CountingAlloc, so the counters
    // only move when driven by hand.
    #[test]
    fn counters_track_alloc_dealloc_and_peak() {
        let before = snapshot();
        on_alloc(100);
        on_alloc(50);
        on_dealloc(100);
        on_alloc(25);
        let after = snapshot();
        assert_eq!(after.allocations, before.allocations + 3);
        assert_eq!(after.allocated_bytes, before.allocated_bytes + 175);
        assert_eq!(after.current_bytes, before.current_bytes + 75);
        assert!(after.peak_bytes >= before.current_bytes + 150);
        assert!(is_counting());
    }
}
