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
    pub(crate) fn self_ns(&self) -> u64 {
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

/// Upper bounds for request-serving latency histograms, nanoseconds:
/// 50 µs, 200 µs, 1 ms, 5 ms, 20 ms, 100 ms, 500 ms, 2 s, 10 s, 30 s
/// (+ overflow). Wide at the top on purpose: the first request against
/// a cold artifact (page-faulting the geometry cache, warming allocator
/// arenas) can take seconds, and a histogram whose last bound is below
/// the cold-start cost silently under-reports p99 — the quantile
/// saturates at the last finite bound (see `HistogramInner::quantile`),
/// with only the rendered `overflow` count as a signal. These bounds keep cold-start requests inside the
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
/// to read the clock (clippy's `disallowed-methods` bans
/// `Instant::now` everywhere else).
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
        Self {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`Timer::start`], saturating at `u64::MAX`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Where one span path sits in the span tree. Recorded when the path
/// first opens, because `/` both joins nesting levels and appears inside
/// span names (`fit/gravity4`), so the path alone cannot be split back.
#[derive(Debug)]
pub(crate) struct SpanNode {
    /// The full nesting-prefixed path.
    pub(crate) path: String,
    /// The name the span was opened with: the path's own frame.
    pub(crate) name: String,
    /// How many spans enclosed it (0 for a top-level span).
    pub(crate) depth: usize,
}

impl SpanNode {
    /// The enclosing span's path, or `None` at the top level.
    pub(crate) fn parent(&self) -> Option<&str> {
        if self.depth == 0 {
            return None;
        }
        self.path
            .strip_suffix(self.name.as_str())?
            .strip_suffix('/')
    }
}

/// All spans a registry has seen: first-start order for trace rendering,
/// alphabetical (`BTreeMap`) order for serialization.
#[derive(Debug, Default)]
pub(crate) struct SpanStore {
    /// Each path in the order it was first *started* — parents before
    /// children, deterministic for a deterministic pipeline.
    pub(crate) order: Vec<SpanNode>,
    pub(crate) stats: BTreeMap<String, SpanStat>,
}

impl SpanStore {
    /// Enters a path in `timing/spans` when it opens, so a span still open
    /// when a run fails is visible (with zero calls).
    pub(crate) fn note_start(&mut self, path: &str, name: &str, depth: usize) {
        if !self.stats.contains_key(path) {
            self.order.push(SpanNode {
                path: path.to_string(),
                name: name.to_string(),
                depth,
            });
            self.stats.insert(path.to_string(), SpanStat::default());
        }
    }

    /// Folds one closed call into the path's record, which
    /// [`SpanStore::note_start`] entered when the span opened.
    pub(crate) fn record(&mut self, path: &str, elapsed_ns: u64, child_ns: u64) {
        if let Some(stat) = self.stats.get_mut(path) {
            stat.observe(elapsed_ns, child_ns);
        }
    }
}

/// Pushes `name` onto the thread's span stack, returning the full path
/// and its nesting depth.
pub(crate) fn push_scope(name: &str) -> (String, usize) {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let depth = stack.len();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        stack.push(Frame {
            path: path.clone(),
            child_ns: 0,
        });
        (path, depth)
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
    pub(crate) registry: &'a MetricsRegistry,
    pub(crate) path: String,
    pub(crate) start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        // u128→u64 ns saturates after ~584 years of elapsed time.
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = pop_scope(elapsed_ns);
        self.registry.record_span(&self.path, elapsed_ns, child_ns);
    }
}
