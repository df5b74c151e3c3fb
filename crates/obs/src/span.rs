//! Monotonic span timers with nested scopes.
//!
//! A span is opened with [`crate::MetricsRegistry::span`] (or the
//! [`crate::span!`] macro against the global registry) and closed by
//! dropping the returned guard. Nesting is tracked per thread: a span
//! opened while another is live gets the parent's path as a prefix, so
//! `span("mobility")` containing `span("fit/gravity4")` records
//! `mobility/fit/gravity4`. Each frame also accumulates the time its
//! *children* spent, so a closed span knows both total and self time
//! (total minus child) — the weight the flamegraph export uses. Timing
//! uses `std::time::Instant` — the only place in the workspace allowed
//! to touch a clock (clippy's `disallowed-methods` bans it elsewhere) — and
//! durations never feed any result-bearing field.

use crate::registry::MetricsRegistry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One live span on this thread's stack.
struct Frame {
    /// The full nesting-prefixed path.
    path: String,
    /// Nanoseconds spent in already-closed direct children.
    child_ns: u64,
}

thread_local! {
    /// The stack of spans live on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Times the span completed. Deterministic for a deterministic
    /// pipeline — the only field of a span that is.
    pub calls: u64,
    /// Total nanoseconds across all calls.
    pub total_ns: u64,
    /// Fastest single call, nanoseconds.
    pub min_ns: u64,
    /// Slowest single call, nanoseconds.
    pub max_ns: u64,
    /// Nanoseconds spent inside direct child spans, across all calls.
    /// `total_ns - child_ns` is the span's *self time*.
    pub child_ns: u64,
}

impl SpanStat {
    /// The span's self time: total minus time attributed to children.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    fn observe(&mut self, elapsed_ns: u64, child_ns: u64) {
        if self.calls == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        self.child_ns = self.child_ns.saturating_add(child_ns);
    }
}

/// Upper bounds of the fixed per-span latency histogram, nanoseconds:
/// 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s, 10 s (+ overflow).
pub const LATENCY_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Upper bounds for request-serving latency histograms, nanoseconds:
/// 50 µs, 200 µs, 1 ms, 5 ms, 20 ms, 100 ms, 500 ms, 2 s, 10 s, 30 s
/// (+ overflow). Wider at the top than [`LATENCY_BOUNDS_NS`] on
/// purpose: the first request against a cold artifact (page-faulting
/// the geometry cache, warming allocator arenas) can take seconds, and
/// a histogram whose last bound is below the cold-start cost silently
/// under-reports p99 — the quantile saturates at the last finite bound
/// (see `HistogramInner::quantile`), with only the rendered `overflow`
/// count as a signal. These bounds keep cold-start requests inside the
/// finite buckets so serve p99 stays honest.
pub const SERVE_LATENCY_BOUNDS_NS: [u64; 10] = [
    50_000,
    200_000,
    1_000_000,
    5_000_000,
    20_000_000,
    100_000_000,
    500_000_000,
    2_000_000_000,
    10_000_000_000,
    30_000_000_000,
];

/// A monotonic stopwatch for code outside `tweetmob-obs` that needs a
/// duration *sample* (e.g. per-request latency in a serving loop)
/// without holding a span open or touching `std::time::Instant`
/// directly — this crate is the one place in the workspace sanctioned
/// to read the wall clock, and the determinism lint's taint pass keys
/// on `Instant`/`elapsed` tokens at call sites.
///
/// Feed the result straight into a [`Histogram`](crate::Histogram) or
/// counter; never format it into user-visible output on a
/// determinism-audited path.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    started: Instant,
}

impl Timer {
    /// Starts the stopwatch.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "tweetmob-obs owns the monotonic clock; a timer's reading is never a result"
    )]
    pub fn start() -> Self {
        Self { started: Instant::now() }
    }

    /// Nanoseconds since [`Timer::start`], saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// All spans a registry has seen: first-start order for trace rendering,
/// alphabetical (`BTreeMap`) order for serialization.
#[derive(Debug, Default)]
pub(crate) struct SpanStore {
    /// Full paths in the order each was first *started* — parents before
    /// children, deterministic for a deterministic pipeline.
    pub(crate) order: Vec<String>,
    pub(crate) stats: BTreeMap<String, SpanStat>,
    /// Per-path latency histogram: one count per `LATENCY_BOUNDS_NS`
    /// entry plus a trailing overflow cell.
    pub(crate) latency: BTreeMap<String, [u64; LATENCY_BOUNDS_NS.len() + 1]>,
}

impl SpanStore {
    pub(crate) fn note_start(&mut self, path: &str) {
        if !self.stats.contains_key(path) {
            self.order.push(path.to_string());
            self.stats.insert(path.to_string(), SpanStat::default());
        }
    }

    pub(crate) fn record(&mut self, path: &str, elapsed_ns: u64, child_ns: u64) {
        self.stats
            .entry(path.to_string())
            .or_default()
            .observe(elapsed_ns, child_ns);
        let buckets = self
            .latency
            .entry(path.to_string())
            .or_insert([0; LATENCY_BOUNDS_NS.len() + 1]);
        let idx = LATENCY_BOUNDS_NS.partition_point(|&b| b < elapsed_ns);
        buckets[idx] += 1;
    }
}

/// Pushes `name` onto the thread's span stack, returning the full path.
pub(crate) fn push_scope(name: &str) -> String {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        stack.push(Frame {
            path: path.clone(),
            child_ns: 0,
        });
        path
    })
}

/// Pops the innermost scope (guard drop), credits its elapsed time to
/// the parent frame still on the stack, and returns how long the popped
/// span's own children ran.
pub(crate) fn pop_scope(elapsed_ns: u64) -> u64 {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let child_ns = stack.pop().map_or(0, |frame| frame.child_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
        }
        child_ns
    })
}

/// RAII guard for one live span. Dropping it records the elapsed time
/// into the owning registry; guards must be dropped on the thread that
/// opened them (nesting is thread-local).
#[must_use = "a span guard measures until dropped; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    /// `None` for the no-op guard handed out while the registry is
    /// disabled — no clock is read and nothing is recorded.
    pub(crate) active: Option<(&'a MetricsRegistry, String, Instant)>,
    /// Allocation counts at span open, for the per-span allocator
    /// gauges. `None` when no counting allocator is installed.
    #[cfg(feature = "alloc")]
    pub(crate) alloc_at_open: Option<tweetmob_alloc::AllocSnapshot>,
}

impl SpanGuard<'_> {
    /// The full (nesting-prefixed) path, or `None` for a no-op guard.
    #[must_use]
    pub fn path(&self) -> Option<&str> {
        self.active.as_ref().map(|(_, p, _)| p.as_str())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((registry, path, start)) = self.active.take() {
            let elapsed = start.elapsed().as_nanos();
            // u128→u64 ns saturates after ~584 years of elapsed time.
            let elapsed_ns = u64::try_from(elapsed).unwrap_or(u64::MAX);
            let child_ns = pop_scope(elapsed_ns);
            registry.record_span(&path, elapsed_ns, child_ns);
            #[cfg(feature = "alloc")]
            if let Some(open) = self.alloc_at_open.take() {
                let now = tweetmob_alloc::snapshot();
                registry
                    .gauge(&format!("alloc/{path}/allocations"))
                    .set(i64::try_from(now.allocations.saturating_sub(open.allocations)).unwrap_or(i64::MAX));
                registry
                    .gauge(&format!("alloc/{path}/peak_bytes"))
                    .set(i64::try_from(now.peak_bytes).unwrap_or(i64::MAX));
            }
        }
    }
}
