//! The metrics registry: named counters, gauges, histograms and span
//! timings, serializable to a stable JSON document.

use crate::histogram::{Histogram, HistogramInner};
use crate::json::Json;
use crate::manifest::RunManifest;
use crate::span::{SpanGuard, SpanStat, SpanStore, LATENCY_BOUNDS_NS};
use crate::trace::{TraceBuffer, TraceEvent, TracePhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A cloneable handle onto one registered monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `n`. A no-op while the owning registry is disabled.
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A cloneable handle onto one registered gauge (a settable `i64`).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Sets the gauge. A no-op while the owning registry is disabled.
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics.
///
/// Handles ([`Counter`], [`Gauge`], [`Histogram`]) are created on first
/// use of a name and shared thereafter; recording through a handle is a
/// few relaxed atomics and never locks. Span timing locks a `Mutex` per
/// span open/close — spans mark pipeline *stages*, not inner loops.
///
/// Serialization ([`MetricsRegistry::to_json`]) is deterministic: keys
/// are `BTreeMap`-ordered and no wall-clock timestamp appears anywhere.
/// The run-to-run variation is duration data and execution shape —
/// fields suffixed `_ns`, the `timing/latency_ns` subtree, trace-event
/// timestamps and sequence numbers, allocator (`alloc/`) and worker-pool
/// (`par/`) gauges, and the manifest thread count — all of which
/// [`MetricsRegistry::to_json_redacted`] zeroes for byte-comparison.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    spans: Mutex<SpanStore>,
    trace: Mutex<TraceBuffer>,
    manifest: Mutex<Option<RunManifest>>,
    /// The instant of the first recorded trace event; every event's
    /// `t_ns` is an offset from it, so no wall-clock value is stored.
    epoch: OnceLock<Instant>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding one of these locks cannot leave the maps in a
    // torn state (every mutation is a single insert or field update), so
    // recover the data instead of poisoning the whole pipeline's metrics.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// A fresh, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        let registry = Self::default();
        registry.enabled.store(true, Ordering::Relaxed);
        registry
    }

    /// A fresh registry that records nothing until enabled — the no-op
    /// baseline for overhead measurements.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Turns recording on or off. Existing handles observe the switch.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the registry is recording.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter registered under `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let cell = Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        );
        Gauge {
            cell,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// The histogram registered under `name`. Bucket bounds freeze on
    /// first registration; later calls with different bounds get the
    /// original histogram (bounds are part of the metric's identity and
    /// must not drift mid-run).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let inner = Arc::clone(
            lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramInner::new(bounds))),
        );
        Histogram {
            inner,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Opens a span named `name`, nested under any span already live on
    /// this thread. While the registry is disabled this is a no-op guard
    /// that never reads the clock.
    #[expect(
        clippy::disallowed_methods,
        reason = "tweetmob-obs owns the monotonic clock; span timings never reach a result"
    )]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                active: None,
                #[cfg(feature = "alloc")]
                alloc_at_open: None,
            };
        }
        let path = crate::span::push_scope(name);
        let t_ns = self.epoch_ns();
        {
            let mut spans = lock(&self.spans);
            spans.note_start(&path);
        }
        lock(&self.trace).record(TracePhase::Begin, &path, t_ns, 0);
        SpanGuard {
            active: Some((self, path, Instant::now())),
            #[cfg(feature = "alloc")]
            alloc_at_open: tweetmob_alloc::is_counting().then(tweetmob_alloc::snapshot),
        }
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64, child_ns: u64) {
        let t_ns = self.epoch_ns();
        lock(&self.spans).record(path, elapsed_ns, child_ns);
        lock(&self.trace)
            .record(TracePhase::End, path, t_ns, elapsed_ns);
    }

    /// Nanoseconds since the registry's first trace event (the epoch is
    /// initialized on first call, so the first event reads ~0).
    #[expect(
        clippy::disallowed_methods,
        reason = "tweetmob-obs owns the monotonic clock; trace timestamps are redacted"
    )]
    fn epoch_ns(&self) -> u64 {
        let elapsed = self.epoch.get_or_init(Instant::now).elapsed().as_nanos();
        u64::try_from(elapsed).unwrap_or(u64::MAX)
    }

    /// Current value of a counter, or `None` if never registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        lock(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge, or `None` if never registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        lock(&self.gauges)
            .get(name)
            .map(|g| g.load(Ordering::Relaxed))
    }

    /// Aggregated timing of a span path, if it ever completed.
    #[must_use]
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        lock(&self.spans).stats.get(path).copied()
    }

    /// Every span path seen, in first-start order.
    #[must_use]
    pub fn span_paths(&self) -> Vec<String> {
        lock(&self.spans).order.clone()
    }

    /// A snapshot of the trace ring buffer, oldest event first.
    fn trace_events(&self) -> Vec<TraceEvent> {
        lock(&self.trace).events()
    }

    /// Resizes the trace ring buffer (default
    /// [`crate::trace::DEFAULT_TRACE_CAPACITY`] events); shrinking drops
    /// the oldest events. Capacity 0 disables event recording entirely.
    pub fn set_trace_capacity(&self, capacity: usize) {
        lock(&self.trace).set_capacity(capacity);
    }

    /// Attaches the run's provenance manifest; it serializes as the
    /// document's `manifest` section (rendered as `null` until set).
    pub fn set_manifest(&self, manifest: RunManifest) {
        *lock(&self.manifest) = Some(manifest);
    }

    /// The attached provenance manifest, if any.
    #[must_use]
    pub fn manifest(&self) -> Option<RunManifest> {
        lock(&self.manifest).clone()
    }

    /// Serializes the registry to its stable JSON document. Two runs of
    /// the same deterministic pipeline differ only in duration data:
    /// fields suffixed `_ns` and the `timing/latency_ns` subtree.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// [`MetricsRegistry::to_json`] with every duration field zeroed —
    /// two identical runs serialize byte-identically under this mode,
    /// which is what the determinism tests and the CI smoke compare.
    #[must_use]
    pub fn to_json_redacted(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, redact: bool) -> String {
        let u64s = |values: &[u64]| Json::Arr(values.iter().map(|&v| v.into()).collect());
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed).into()))
            .collect();
        // gauges — redaction zeroes everything that varies run to run or
        // with execution shape: `_ns`-suffixed durations (e.g.
        // cache/pairgeo/build_ns), allocator accounting (`alloc/`), and
        // worker-pool shape (`par/`, the documented thread-variant
        // exception of DESIGN.md §10).
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, cell)| {
                let shape =
                    name.ends_with("_ns") || name.starts_with("alloc/") || name.starts_with("par/");
                let shown = if redact && shape { 0 } else { cell.load(Ordering::Relaxed) };
                (name.clone(), shown.into())
            })
            .collect();
        // histograms — values of `_ns`-named histograms are duration
        // samples, so their value-derived fields redact; counts stay.
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, hist)| {
                let mut buckets: Vec<u64> =
                    hist.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                let overflow = buckets.pop().unwrap_or(0);
                let mut values = [
                    overflow,
                    hist.sum.load(Ordering::Relaxed),
                    hist.quantile(0.50),
                    hist.quantile(0.90),
                    hist.quantile(0.99),
                ];
                if redact && name.ends_with("_ns") {
                    buckets.fill(0);
                    values = [0; 5];
                }
                let [overflow, sum, p50, p90, p99] = values;
                let doc = Json::obj([
                    ("bounds", u64s(&hist.bounds)),
                    ("buckets", u64s(&buckets)),
                    ("count", hist.count.load(Ordering::Relaxed).into()),
                    ("overflow", overflow.into()),
                    ("p50", p50.into()),
                    ("p90", p90.into()),
                    ("p99", p99.into()),
                    ("sum", sum.into()),
                ]);
                (name.clone(), doc)
            })
            .collect();
        // manifest — run provenance, when the host attached one.
        let manifest = lock(&self.manifest)
            .as_ref()
            .map(|m| m.to_json(redact))
            .unwrap_or(Json::Null);
        // timing (spans + latency histograms) — the duration-bearing part.
        let spans = lock(&self.spans);
        let latency = spans
            .latency
            .iter()
            .map(|(name, buckets)| {
                let shown = if redact { &[0; LATENCY_BOUNDS_NS.len() + 1] } else { buckets };
                (name.clone(), u64s(shown))
            })
            .collect();
        let stats = spans
            .stats
            .iter()
            .map(|(name, stat)| {
                let ns = |v: u64| Json::from(if redact { 0 } else { v });
                let doc = Json::obj([
                    ("calls", stat.calls.into()),
                    ("child_ns", ns(stat.child_ns)),
                    ("max_ns", ns(stat.max_ns)),
                    ("min_ns", ns(stat.min_ns)),
                    ("self_ns", ns(stat.self_ns())),
                    ("total_ns", ns(stat.total_ns)),
                ]);
                (name.clone(), doc)
            })
            .collect();
        drop(spans);
        // trace — the bounded deterministic event log.
        let trace = lock(&self.trace);
        let (capacity, dropped, events) = (trace.capacity(), trace.dropped(), trace.events());
        drop(trace);
        let events = events
            .iter()
            .map(|e| {
                let ns = |v: u64| Json::from(if redact { 0 } else { v });
                Json::obj([
                    ("dur_ns", ns(e.dur_ns)),
                    ("path", e.path.as_str().into()),
                    ("phase", e.phase.code().into()),
                    ("seq", ns(e.seq)),
                    ("t_ns", ns(e.t_ns)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("manifest", manifest),
            (
                "timing",
                Json::obj([
                    ("latency_bounds_ns", u64s(&LATENCY_BOUNDS_NS)),
                    ("latency_ns", Json::Obj(latency)),
                    ("spans", Json::Obj(stats)),
                ]),
            ),
            (
                "trace",
                Json::obj([
                    ("capacity", capacity.into()),
                    ("dropped", dropped.into()),
                    ("events", Json::Arr(events)),
                ]),
            ),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Exports the trace ring buffer as a Chrome `trace_event` JSON
    /// document (see [`crate::trace::render_chrome_trace`]).
    #[must_use]
    pub fn to_chrome_trace(&self, redact: bool) -> String {
        crate::trace::render_chrome_trace(&self.trace_events(), redact)
    }

    /// Exports span aggregates as collapsed stacks for flamegraph
    /// tooling (see [`crate::trace::render_collapsed`]).
    #[must_use]
    pub fn to_collapsed_stacks(&self, redact: bool) -> String {
        let spans = lock(&self.spans);
        let order = spans.order.clone();
        let stats: Vec<(String, SpanStat)> = spans
            .stats
            .iter()
            .map(|(path, stat)| (path.clone(), *stat))
            .collect();
        drop(spans);
        crate::trace::render_collapsed(&order, &stats, redact)
    }

    /// Renders the span tree as human-readable text, one line per path
    /// in first-start order, indented by nesting depth — the `--trace`
    /// output.
    #[must_use]
    pub fn render_trace(&self) -> String {
        let spans = lock(&self.spans);
        if spans.order.is_empty() {
            return String::from("(no spans recorded)\n");
        }
        let mut out = String::new();
        for path in &spans.order {
            let Some(stat) = spans.stats.get(path) else {
                continue;
            };
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = write!(out, "{:indent$}{name}", "", indent = depth * 2);
            let pad = 40usize.saturating_sub(depth * 2 + name.len());
            let _ = writeln!(
                out,
                "{:pad$} {:>10}  x{}",
                "",
                format_ns(stat.total_ns),
                stat.calls,
            );
        }
        out
    }
}

/// Formats nanoseconds as a human-friendly duration.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.incr();
        assert_eq!(r.counter_value("x"), Some(4));
        assert_eq!(a.value(), 4);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("x");
        c.add(10);
        let g = r.gauge("y");
        g.set(5);
        {
            let _guard = r.span("stage");
        }
        assert_eq!(r.counter_value("x"), Some(0));
        assert_eq!(r.gauge_value("y"), Some(0));
        assert!(r.span_paths().is_empty());
        // Flipping it on makes the same handles live.
        r.set_enabled(true);
        c.add(10);
        assert_eq!(c.value(), 10);
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let r = MetricsRegistry::new();
        {
            let _outer = r.span("mobility");
            {
                let _inner = r.span("fit/gravity4");
            }
            {
                let _inner = r.span("evaluate");
            }
        }
        {
            let _top = r.span("load");
        }
        assert_eq!(
            r.span_paths(),
            vec![
                "mobility",
                "mobility/fit/gravity4",
                "mobility/evaluate",
                "load"
            ]
        );
        let stat = r.span_stat("mobility/fit/gravity4").unwrap();
        assert_eq!(stat.calls, 1);
        assert!(stat.max_ns >= stat.min_ns);
    }

    #[test]
    fn span_calls_aggregate() {
        let r = MetricsRegistry::new();
        for _ in 0..3 {
            let _g = r.span("fit");
        }
        let stat = r.span_stat("fit").unwrap();
        assert_eq!(stat.calls, 3);
        assert!(stat.total_ns >= stat.max_ns);
    }

    #[test]
    fn trace_renders_indented_tree() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("load");
            let _b = r.span("read_jsonl");
        }
        let trace = r.render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines[0].starts_with("load"));
        assert!(lines[1].starts_with("  read_jsonl"));
        assert!(MetricsRegistry::new().render_trace().contains("no spans"));
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(1_500), "1.5 µs");
        assert_eq!(format_ns(2_000_000), "2.00 ms");
        assert_eq!(format_ns(3_000_000_000), "3.00 s");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = MetricsRegistry::new();
        r.counter("we\"ird\\name").incr();
        let json = r.to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn child_time_accrues_to_the_parent_span() {
        let r = MetricsRegistry::new();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
            {
                let _inner = r.span("inner");
            }
        }
        let outer = r.span_stat("outer").unwrap();
        let inner = r.span_stat("outer/inner").unwrap();
        // The parent's child time is exactly the children's total time.
        assert_eq!(outer.child_ns, inner.total_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        assert_eq!(inner.child_ns, 0, "leaf spans have no child time");
        assert_eq!(inner.self_ns(), inner.total_ns);
    }

    #[test]
    fn trace_events_pair_begin_and_end_in_sequence_order() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("load");
            let _b = r.span("parse");
        }
        let events = r.trace_events();
        let shape: Vec<(u64, &str, String)> = events
            .iter()
            .map(|e| (e.seq, e.phase.code(), e.path.clone()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (1, "B", "load".to_string()),
                (2, "B", "load/parse".to_string()),
                (3, "E", "load/parse".to_string()),
                (4, "E", "load".to_string()),
            ]
        );
        assert_eq!(lock(&r.trace).dropped(), 0);
        // End events carry the span duration; begins do not.
        assert_eq!(events[0].dur_ns, 0);
        assert!(events[3].t_ns >= events[0].t_ns);
    }

    #[test]
    fn document_carries_trace_and_manifest_sections() {
        let r = MetricsRegistry::new();
        {
            let _s = r.span("stage");
        }
        let json = r.to_json();
        assert!(json.contains("\"trace\": {"));
        assert!(json.contains("\"phase\": \"B\""));
        assert!(json.contains("\"manifest\": null"));
        r.set_manifest(RunManifest {
            subcommand: "fit".into(),
            outcome: "ok".into(),
            ..RunManifest::default()
        });
        let json = r.to_json();
        assert!(json.contains("\"subcommand\": \"fit\""));
        assert_eq!(r.manifest().unwrap().subcommand, "fit");
    }

    #[test]
    fn redacted_document_is_identical_across_runs_with_trace() {
        let run = || {
            let r = MetricsRegistry::new();
            {
                let _a = r.span("load");
                let _b = r.span("parse");
            }
            r.set_manifest(RunManifest {
                subcommand: "summary".into(),
                threads: 3,
                outcome: "ok".into(),
                ..RunManifest::default()
            });
            r
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json_redacted(), b.to_json_redacted());
        let redacted = a.to_json_redacted();
        assert!(redacted.contains("\"seq\": 0"));
        assert!(redacted.contains("\"t_ns\": 0"));
        assert!(redacted.contains("\"threads\": 0"));
        assert!(redacted.contains("\"child_ns\": 0"));
        assert!(redacted.contains("\"self_ns\": 0"));
    }

    #[test]
    fn redaction_zeroes_alloc_and_par_gauges() {
        let r = MetricsRegistry::new();
        r.gauge("alloc/load/peak_bytes").set(4096);
        r.gauge("par/trips/threads").set(8);
        r.gauge("odmatrix/cells").set(400);
        let redacted = r.to_json_redacted();
        assert!(redacted.contains("\"alloc/load/peak_bytes\": 0"));
        assert!(redacted.contains("\"par/trips/threads\": 0"));
        assert!(redacted.contains("\"odmatrix/cells\": 400"));
    }

    #[test]
    fn duration_valued_histograms_redact_values_keep_counts() {
        let r = MetricsRegistry::new();
        let h = r.histogram("io/write_ns", &[1_000, 1_000_000]);
        h.record(500);
        h.record(2_000_000);
        let full = r.to_json();
        assert!(full.contains("\"sum\": 2000500"));
        let redacted = r.to_json_redacted();
        assert!(redacted.contains("\"count\": 2"), "counts are deterministic");
        assert!(redacted.contains("\"sum\": 0"));
        assert!(redacted.contains("\"p99\": 0"));
    }

    #[test]
    fn histogram_json_carries_interpolated_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("tweets_per_user", &[10, 20]);
        for v in [2, 4, 6, 8, 12, 14, 16, 18] {
            h.record(v);
        }
        let json = r.to_json();
        assert!(json.contains("\"p50\": 10"), "boundary-pinned p50: {json}");
        assert!(json.contains("\"p90\": 18"));
        assert!(json.contains("\"p99\": 20"));
    }

    #[test]
    fn saturated_quantiles_render_with_a_visible_overflow_count() {
        let r = MetricsRegistry::new();
        // Bounds far too narrow for the tail: every quantile rank that
        // lands in the overflow bucket saturates at the last finite
        // bound, so the rendered document must carry the overflow count
        // right next to the quantiles as the under-reporting signal.
        let h = r.histogram("serve_latency_demo", &[10, 100]);
        h.record(5);
        for _ in 0..9 {
            h.record(50_000); // far beyond the last bound
        }
        assert_eq!(h.overflow(), 9);
        assert_eq!(h.quantile(0.99), 100, "p99 saturates at the last bound");
        let json = r.to_json();
        assert!(json.contains("\"overflow\": 9"), "overflow visible: {json}");
        assert!(json.contains("\"p99\": 100"), "saturated p99 rendered: {json}");
    }

    #[test]
    fn serve_latency_bounds_keep_cold_start_requests_finite() {
        let r = MetricsRegistry::new();
        let h = r.histogram("serve_cold_start", &crate::SERVE_LATENCY_BOUNDS_NS);
        // A multi-second first request against a cold artifact must land
        // in a finite bucket, not the overflow cell — otherwise serve
        // p99 silently saturates (the failure mode pinned above).
        h.record(4_000_000_000);
        assert_eq!(h.overflow(), 0);
        let p99 = h.quantile(0.99);
        assert!(
            p99 > 2_000_000_000 && p99 <= 30_000_000_000,
            "cold start interpolates inside the finite buckets, got {p99}"
        );
    }

    #[test]
    fn timer_yields_monotonic_nanosecond_samples() {
        let t = crate::Timer::start();
        let first = t.elapsed_ns();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        let second = t.elapsed_ns();
        assert!(second >= first, "{second} >= {first}");
    }

    #[test]
    fn chrome_trace_and_collapsed_exports_come_from_the_registry() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("fit");
            let _b = r.span("gravity4");
        }
        let chrome = r.to_chrome_trace(false);
        assert!(chrome.contains("\"name\": \"fit/gravity4\""));
        let folded = r.to_collapsed_stacks(false);
        assert!(folded.contains("fit;gravity4 "));
        // Redacted exports are stable across identical runs.
        let again = MetricsRegistry::new();
        {
            let _a = again.span("fit");
            let _b = again.span("gravity4");
        }
        assert_eq!(r.to_chrome_trace(true), again.to_chrome_trace(true));
        assert_eq!(r.to_collapsed_stacks(true), again.to_collapsed_stacks(true));
    }

    #[test]
    fn trace_capacity_bounds_the_registry_buffer() {
        let r = MetricsRegistry::new();
        r.set_trace_capacity(2);
        for _ in 0..3 {
            let _s = r.span("s");
        }
        assert_eq!(r.trace_events().len(), 2);
        assert_eq!(lock(&r.trace).dropped(), 4, "3 begins + 3 ends, 2 kept");
    }
}
