//! The metrics registry: named counters, gauges, histograms and span
//! timings, serializable to a stable JSON document.

use crate::histogram::{Histogram, HistogramInner};
use crate::json::Json;
use crate::manifest::RunManifest;
use crate::span::{SpanGuard, SpanStat, SpanStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A cloneable handle onto one registered monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
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
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
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
/// span and histogram fields suffixed `_ns`, worker-pool (`par/`)
/// gauges and the manifest thread count — all of which
/// [`MetricsRegistry::to_json_redacted`] zeroes for byte-comparison.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    spans: Mutex<SpanStore>,
    manifest: Mutex<Option<RunManifest>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding one of these locks cannot leave the maps in a
    // torn state (every mutation is a single insert or field update), so
    // recover the data instead of poisoning the whole pipeline's metrics.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let cell = Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter { cell }
    }

    /// The gauge registered under `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        );
        Gauge { cell }
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
        Histogram { inner }
    }

    /// Opens a span named `name`, nested under any span already live on
    /// this thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "tweetmob-obs owns the monotonic clock; span timings never reach a result"
    )]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let (path, depth) = crate::span::push_scope(name);
        lock(&self.spans).note_start(&path, name, depth);
        SpanGuard {
            registry: self,
            path,
            start: Instant::now(),
        }
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64, child_ns: u64) {
        lock(&self.spans).record(path, elapsed_ns, child_ns);
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

    /// Every span path seen, in first-start order (a test oracle).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn span_paths(&self) -> Vec<String> {
        lock(&self.spans)
            .order
            .iter()
            .map(|node| node.path.clone())
            .collect()
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
    /// fields suffixed `_ns`.
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
        // gauges — redaction zeroes worker-pool shape (`par/`, the
        // documented thread-variant exception of DESIGN.md §10).
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, cell)| {
                let shown = if redact && name.starts_with("par/") {
                    0
                } else {
                    cell.load(Ordering::Relaxed)
                };
                (name.clone(), shown.into())
            })
            .collect();
        // histograms — values of `_ns`-named histograms are duration
        // samples, so their value-derived fields redact; counts stay.
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, hist)| {
                let mut buckets: Vec<u64> = hist
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
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
        // timing — the span aggregates, the duration-bearing part.
        let stats = lock(&self.spans)
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
        let doc = Json::obj([
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("manifest", manifest),
            ("timing", Json::obj([("spans", Json::Obj(stats))])),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Exports span aggregates as collapsed stacks for flamegraph
    /// tooling (`--trace-out`): `frame;frame weight` lines, weighted by
    /// self time in ns, or by call count under `redact`.
    #[must_use]
    pub fn to_collapsed_stacks(&self, redact: bool) -> String {
        crate::trace::render_collapsed(&lock(&self.spans), redact)
    }

    /// Renders the span tree as human-readable text, one line per path
    /// in first-start order, indented by nesting depth — the `--trace`
    /// output.
    #[must_use]
    pub fn render_trace(&self) -> String {
        crate::trace::render_tree(&lock(&self.spans))
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
        b.add(1);
        assert_eq!(r.counter_value("x"), Some(4));
        assert_eq!(a.value(), 4);
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
    fn slashes_inside_span_names_are_not_nesting() {
        let r = MetricsRegistry::new();
        {
            let _fit = r.span("fit/gravity4");
        }
        {
            let _load = r.span("load");
            let _read = r.span("read_jsonl");
        }
        let trace = r.render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines[0].starts_with("fit/gravity4 "), "{trace}");
        assert!(lines[2].starts_with("  read_jsonl "), "{trace}");
        let folded = r.to_collapsed_stacks(true);
        assert_eq!(folded, "fit/gravity4 1\nload 1\nload;read_jsonl 1\n");
        let weights = r.to_collapsed_stacks(false);
        let frames: Vec<&str> = weights
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(f, _)| f)
            .collect();
        assert_eq!(frames, ["fit/gravity4", "load", "load;read_jsonl"]);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = MetricsRegistry::new();
        r.counter("we\"ird\\name").add(1);
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
    fn document_carries_the_manifest_section() {
        let r = MetricsRegistry::new();
        assert!(r.to_json().contains("\"manifest\": null"));
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
    fn redacted_document_is_identical_across_runs() {
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
        assert!(redacted.contains("\"threads\": 0"));
        assert!(redacted.contains("\"child_ns\": 0"));
        assert!(redacted.contains("\"self_ns\": 0"));
    }

    #[test]
    fn redaction_zeroes_par_gauges() {
        let r = MetricsRegistry::new();
        r.gauge("par/trips/threads").set(8);
        r.gauge("odmatrix/cells").set(400);
        let redacted = r.to_json_redacted();
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
        assert!(
            redacted.contains("\"count\": 2"),
            "counts are deterministic"
        );
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
        assert!(
            json.contains("\"p99\": 100"),
            "saturated p99 rendered: {json}"
        );
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
    fn histogram_zero_samples() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("empty", &[1, 2, 3]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.bucket_counts(), vec![0, 0, 0, 0]);
        let doc = Json::parse(&registry.to_json()).expect("valid JSON");
        assert_eq!(doc["histograms"]["empty"]["count"], 0);
        assert_eq!(
            doc["histograms"]["empty"]["buckets"],
            Json::from(vec![0u64, 0, 0])
        );
    }

    #[test]
    fn histogram_single_sample_lands_once() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("one", &[10, 20]);
        h.record(15);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.bucket_counts(), vec![0, 1, 0]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_bucket_catches_the_tail() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("tail", &[1, 2]);
        h.record(2); // boundary: lands in the `<= 2` bucket, not overflow
        h.record(3);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), vec![0, 1, 2]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    /// Drives one registry through an identical instrumented "pipeline".
    fn identical_run() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry.counter("tweets_read").add(1000);
        registry.counter("trips/extracted").add(77);
        registry.gauge("odmatrix/nonzero_pairs").set(42);
        let h = registry.histogram("tweets_per_user", &[1, 10, 100]);
        for v in [1, 4, 9, 50, 200] {
            h.record(v);
        }
        {
            let _load = registry.span("load");
            let _read = registry.span("read_jsonl");
        }
        {
            let _mob = registry.span("mobility");
            for model in ["gravity4", "gravity2", "radiation"] {
                let _fit = registry.span(model);
            }
            let _eval = registry.span("evaluate");
        }
        registry
    }

    #[test]
    fn nested_span_ordering_is_deterministic_across_two_runs() {
        let a = identical_run();
        let b = identical_run();
        // First-start order (the trace tree) is identical...
        assert_eq!(a.span_paths(), b.span_paths());
        assert_eq!(
            a.span_paths(),
            vec![
                "load",
                "load/read_jsonl",
                "mobility",
                "mobility/gravity4",
                "mobility/gravity2",
                "mobility/radiation",
                "mobility/evaluate",
            ]
        );
        // ...and the redacted documents are byte-identical: durations are the
        // only run-to-run variation in the full document.
        assert_eq!(a.to_json_redacted(), b.to_json_redacted());
        assert_ne!(a.to_json_redacted(), ""); // non-trivial document
        let full = Json::parse(&a.to_json()).expect("valid");
        let redacted = Json::parse(&a.to_json_redacted()).expect("valid");
        assert_eq!(full["counters"], redacted["counters"]);
        assert_eq!(full["histograms"], redacted["histograms"]);
        assert_eq!(
            redacted["timing"]["spans"]["load"]["total_ns"], 0,
            "redaction zeroes durations"
        );
        assert_eq!(
            full["timing"]["spans"]["load"]["calls"],
            redacted["timing"]["spans"]["load"]["calls"]
        );
    }

    #[test]
    fn trace_is_stable_modulo_durations() {
        let a = identical_run().render_trace();
        let lines: Vec<String> = a
            .lines()
            .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
            .collect();
        let b = identical_run().render_trace();
        let lines_b: Vec<String> = b
            .lines()
            .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
            .collect();
        assert_eq!(lines, lines_b);
        assert_eq!(lines[0], "load");
    }
}
