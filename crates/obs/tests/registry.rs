//! Integration tests of the registry's serialization contract: the JSON
//! document is valid and deterministic (`BTreeMap`-ordered, no
//! wall-clock fields). The histogram and span edge cases are unit tests
//! in `src/registry.rs`.

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
