//! Integration tests of the registry's serialization contract: the JSON
//! document is valid, deterministic (`BTreeMap`-ordered, no wall-clock
//! fields), and histogram/span edge cases serialize sanely.

use tweetmob_obs::{Json, MetricsRegistry};

#[test]
fn empty_registry_serializes_to_a_valid_document() {
    let registry = MetricsRegistry::new();
    let json = registry.to_json();
    let doc = Json::parse(&json).expect("valid JSON");
    let sections: Vec<&str> = doc
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        sections,
        ["counters", "gauges", "histograms", "manifest", "timing"]
    );
    let timing: Vec<&String> = doc["timing"].as_object().expect("object").keys().collect();
    assert_eq!(timing, ["spans"]);
    assert_eq!(doc["counters"], Json::obj([]));
    assert_eq!(doc["timing"]["spans"], Json::obj([]));
    assert_eq!(doc["manifest"], Json::Null);
    // An empty registry is trivially run-stable.
    assert_eq!(json, MetricsRegistry::new().to_json());
}

#[test]
fn full_document_parses_with_all_metric_kinds() {
    let registry = MetricsRegistry::new();
    registry.counter("tweets_read").add(120);
    registry.gauge("od_cells").set(400);
    let h = registry.histogram("tweets_per_user", &[1, 5, 10]);
    h.record(3);
    h.record(100);
    {
        let _outer = registry.span("load");
        let _inner = registry.span("parse");
    }
    let doc = Json::parse(&registry.to_json()).expect("valid JSON");
    assert_eq!(doc["counters"]["tweets_read"], 120);
    assert_eq!(doc["gauges"]["od_cells"], 400);
    assert_eq!(doc["histograms"]["tweets_per_user"]["count"], 2);
    assert_eq!(doc["histograms"]["tweets_per_user"]["overflow"], 1);
    assert_eq!(doc["timing"]["spans"]["load"]["calls"], 1);
    assert_eq!(doc["timing"]["spans"]["load/parse"]["calls"], 1);
    assert!(doc["timing"]["spans"]["load"]["total_ns"]
        .as_u64()
        .is_some());
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
