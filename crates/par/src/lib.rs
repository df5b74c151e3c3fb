//! # tweetmob-par
//!
//! The workspace's shared parallel-execution layer: a deterministic
//! chunked worker pool that the two hot stages, tweet synthesis and the
//! population-and-trips scan, run on. Clippy's `disallowed-methods`
//! (see `clippy.toml`) rejects raw thread spawns anywhere else in the
//! workspace.
//!
//! ## The determinism contract
//!
//! [`par_map_reduce`] splits the index range `0..n_items` into at most
//! `threads` contiguous chunks, maps each chunk, and folds the results
//! **in chunk order** (ascending index). Callers get bit-identical
//! output at every thread count provided they hold up their end:
//!
//! 1. the map closure's result for an index range depends only on the
//!    items in that range (no shared mutable state, no chunk-boundary
//!    coupling — per-item RNG streams must be seeded per item, not per
//!    chunk), and
//! 2. the merge they fold chunk results with is either a concatenation
//!    (chunk order ≡ item order, so the concatenation is
//!    chunking-invariant) or an order-independent reduction
//!    (commutative + associative on the values produced, e.g. integer
//!    cell-count addition, or a minimum with a total tie-break).
//!
//! Floating-point addition is *not* associative; stages that sum floats
//! across items must either keep the sum inside one chunk's range or
//! reduce per-item values in a fixed order after collection.
//!
//! ## Thread-count resolution
//!
//! Highest priority first:
//!
//! 1. a process-local override installed by [`set_threads_override`] or
//!    scoped by [`with_threads`] (the CLI's `--threads` flag, parsed by
//!    [`parse_threads`], and the determinism tests use these),
//! 2. [`std::thread::available_parallelism`].
//!
//! Every source is bounded by [`MAX_THREADS`]: [`parse_threads`] rejects
//! larger values, and the overrides and the host count clamp to it, so
//! outside input can never ask the operating system for an unbounded
//! number of threads.
//!
//! Below a stage-chosen work threshold (`min_parallel` items) the pool
//! runs the map inline on the calling thread — one chunk, no spawns —
//! so tiny inputs never pay thread startup.
//!
//! Every dispatch publishes its shape to the global
//! [`tweetmob_obs`] registry as `par/<stage>/threads` and
//! `par/<stage>/chunks` gauges. These gauges describe *execution*, not
//! results, and are expected to differ between runs at different thread
//! counts; determinism comparisons must ignore the `par/` gauge subtree
//! (alongside the `*_ns` duration fields).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Upper bound on the worker-thread count from any source.
pub const MAX_THREADS: usize = 256;

/// Process-local thread-count override; `0` means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] scopes so concurrent tests cannot observe
/// each other's override.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Installs (or clears, with `None`) the process-wide thread-count
/// override, clamped to [`MAX_THREADS`]. `Some(0)` is treated as
/// `None`. Long-lived callers (the CLI's `--threads` flag) set this once
/// at startup; tests should prefer the scoped [`with_threads`].
pub fn set_threads_override(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0).min(MAX_THREADS), Ordering::SeqCst);
}

/// Runs `f` with the thread count pinned to `threads` (clamped to
/// `1..=`[`MAX_THREADS`]), restoring the previous override afterwards —
/// even on panic. Scopes are serialized process-wide, so concurrent
/// tests cannot bleed overrides into each other; do not nest calls (the
/// inner one would deadlock on the scope lock).
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _scope = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = OVERRIDE.swap(threads.clamp(1, MAX_THREADS), Ordering::SeqCst);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The worker-thread count a dispatch would use right now: the
/// override, else [`std::thread::available_parallelism`] (at most
/// [`MAX_THREADS`]).
#[must_use]
pub fn resolved_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_THREADS)
}

/// Parses a thread count in `1..=`[`MAX_THREADS`]; rejects `0`, larger
/// values, junk and empty strings.
#[must_use]
pub fn parse_threads(v: &str) -> Option<usize> {
    v.trim()
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=MAX_THREADS).contains(n))
}

/// Publishes a dispatch's execution shape as `par/<stage>/*` gauges.
fn publish_shape(stage: &str, threads: usize, chunks: usize) {
    // Gauge values are execution shape, not results; clamping a >2^63
    // thread count is not a case that can arise.
    tweetmob_obs::global()
        .gauge(&format!("par/{stage}/threads"))
        .set(threads.min(i64::MAX as usize) as i64);
    tweetmob_obs::global()
        .gauge(&format!("par/{stage}/chunks"))
        .set(chunks.min(i64::MAX as usize) as i64);
}

/// Maps contiguous index chunks of `0..n_items` across the worker pool,
/// returning one result per chunk **in chunk (ascending index) order**.
///
/// Runs inline on the calling thread — a single chunk covering the whole
/// range — when the resolved thread count is 1 or `n_items <
/// min_parallel`. `n_items == 0` yields one call over the empty range,
/// so callers always get at least one element back.
///
/// See the crate docs for the determinism contract the map closure must
/// satisfy.
fn par_map_chunks<T, F>(stage: &str, n_items: usize, min_parallel: usize, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = resolved_threads().min(n_items.max(1));
    if threads <= 1 || n_items < min_parallel {
        publish_shape(stage, 1, 1);
        return vec![map(0..n_items)];
    }
    let chunk = n_items.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..threads)
        .map(|t| (t * chunk).min(n_items)..((t + 1) * chunk).min(n_items))
        .filter(|r| !r.is_empty())
        .collect();
    publish_shape(stage, threads, ranges.len());
    let map = &map;
    let mut out = Vec::with_capacity(ranges.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the shared worker pool every parallel stage dispatches on"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| scope.spawn(move || map(r)))
            .collect();
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "join() errs only when the worker itself panicked; propagating that \
                          panic is the contract (no half-merged chunk may ever reach a caller)"
            )]
            out.push(h.join().expect("tweetmob-par worker panicked"));
        }
    });
    out
}

/// Maps contiguous index chunks of `0..n_items` across the worker pool
/// and folds the per-chunk results with `merge` in chunk (ascending
/// index) order. Runs inline on the calling thread, as one chunk, when
/// the resolved thread count is 1 or `n_items < min_parallel`.
///
/// The merge must be chunking-invariant (concatenation over contiguous
/// ranges, or an order-independent reduction — see the crate docs) for
/// the result to be identical at every thread count.
#[expect(
    clippy::expect_used,
    reason = "par_map_chunks always returns ≥ 1 chunk"
)]
pub fn par_map_reduce<T, F, M>(
    stage: &str,
    n_items: usize,
    min_parallel: usize,
    map: F,
    merge: M,
) -> T
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
    M: FnMut(T, T) -> T,
{
    let chunks = par_map_chunks(stage, n_items, min_parallel, map);
    chunks
        .into_iter()
        .reduce(merge)
        .expect("at least one chunk")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_range_in_order() {
        for n in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 17] {
                let ranges =
                    with_threads(threads, || par_map_chunks("test/partition", n, 0, |r| r));
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                let want: Vec<usize> = (0..n).collect();
                assert_eq!(flat, want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn reduce_matches_serial_fold() {
        let serial: u64 = (0..10_000u64).map(|i| i * i).sum();
        for threads in [1usize, 2, 5, 16] {
            let parallel = with_threads(threads, || {
                par_map_reduce(
                    "test/reduce",
                    10_000,
                    0,
                    |r| r.map(|i| (i as u64) * (i as u64)).sum::<u64>(),
                    |a, b| a + b,
                )
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn below_threshold_runs_one_chunk() {
        let chunks = with_threads(8, || par_map_chunks("test/threshold", 10, 64, |r| r));
        assert_eq!(chunks, vec![0..10]);
    }

    #[test]
    fn empty_input_still_calls_map_once() {
        let chunks = with_threads(4, || par_map_chunks("test/empty", 0, 0, |r| r));
        assert_eq!(chunks, vec![0..0]);
    }

    #[test]
    fn with_threads_pins_and_restores() {
        set_threads_override(None);
        let seen = with_threads(3, resolved_threads);
        assert_eq!(seen, 3);
        assert_eq!(OVERRIDE.load(Ordering::SeqCst), 0, "override restored");
        let nested = with_threads(2, with_threads_free_probe);
        assert_eq!(nested, 2);
    }

    /// Reads the resolved count without opening another scope.
    fn with_threads_free_probe() -> usize {
        resolved_threads()
    }

    #[test]
    fn override_setter_round_trips() {
        set_threads_override(Some(5));
        assert_eq!(OVERRIDE.load(Ordering::SeqCst), 5);
        set_threads_override(Some(0));
        assert_eq!(OVERRIDE.load(Ordering::SeqCst), 0);
        set_threads_override(None);
        assert_eq!(OVERRIDE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn overrides_clamp_to_the_thread_bound() {
        // Reads the resolved count only: no dispatch, so no thread starts.
        assert_eq!(with_threads(1_000_000, resolved_threads), MAX_THREADS);
    }

    #[test]
    fn parse_threads_rejects_junk() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("256"), Some(MAX_THREADS));
        assert_eq!(parse_threads("257"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("eight"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn shape_gauges_are_published() {
        with_threads(4, || {
            par_map_chunks("test/gauges", 100, 0, |r| r.len());
        });
        let reg = tweetmob_obs::global();
        assert_eq!(reg.gauge_value("par/test/gauges/threads"), Some(4));
        assert_eq!(reg.gauge_value("par/test/gauges/chunks"), Some(4));
    }
}
