//! Text renderings of the span tree, both read from the aggregated
//! [`SpanStat`](crate::SpanStat)s in first-start order:
//!
//! * **Tree** ([`render_tree`]) — the `--trace` output: one line per
//!   path, indented by nesting depth, with total time and call count.
//! * **Collapsed stacks** ([`render_collapsed`]) — the
//!   `frame;frame;frame weight` lines consumed by flamegraph tooling,
//!   weighted by span *self time* (time not attributed to a child
//!   span); the redacted variant weights by call count instead.
//!
//! Frames are the names spans were opened with, so a top-level
//! `fit/gravity4` stays one frame and one unindented line.

use crate::span::SpanStore;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the span tree as human-readable text, one line per path in
/// first-start order, indented by nesting depth.
pub(crate) fn render_tree(spans: &SpanStore) -> String {
    if spans.order.is_empty() {
        return String::from("(no spans recorded)\n");
    }
    let mut out = String::new();
    for node in &spans.order {
        let Some(stat) = spans.stats.get(&node.path) else {
            continue;
        };
        let indent = node.depth * 2;
        let pad = 40usize.saturating_sub(indent + node.name.len());
        let _ = writeln!(
            out,
            "{:indent$}{}{:pad$} {:>10}  x{}",
            "",
            node.name,
            "",
            format_ns(stat.total_ns),
            stat.calls,
        );
    }
    out
}

/// Renders span aggregates as collapsed stacks (`a;b;c weight`, one
/// line per path in first-start order) for flamegraph tooling. The
/// weight is the span's *self time* in nanoseconds — total minus the
/// time attributed to child spans — or, under `redact`, its call count
/// (deterministic, so redacted flamegraphs compare byte-for-byte).
pub(crate) fn render_collapsed(spans: &SpanStore, redact: bool) -> String {
    // A parent always opens before its children, so its stack is known
    // by the time a child's line is rendered.
    let mut stacks: BTreeMap<&str, String> = BTreeMap::new();
    let mut out = String::new();
    for node in &spans.order {
        let stack = match node.parent().and_then(|p| stacks.get(p)) {
            Some(parent) => format!("{parent};{}", node.name),
            None => node.name.clone(),
        };
        if let Some(stat) = spans.stats.get(&node.path) {
            let weight = if redact { stat.calls } else { stat.self_ns() };
            let _ = writeln!(out, "{stack} {weight}");
        }
        stacks.insert(&node.path, stack);
    }
    out
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
    use crate::SpanStat;

    fn store(nodes: &[(&str, &str, usize, SpanStat)]) -> SpanStore {
        let mut spans = SpanStore::default();
        for &(path, name, depth, stat) in nodes {
            spans.note_start(path, name, depth);
            spans.stats.insert(path.to_string(), stat);
        }
        spans
    }

    fn stat(calls: u64, total_ns: u64, child_ns: u64) -> SpanStat {
        SpanStat {
            calls,
            total_ns,
            min_ns: 0,
            max_ns: 0,
            child_ns,
        }
    }

    #[test]
    fn collapsed_weights_by_self_time_or_calls() {
        let spans = store(&[
            ("a", "a", 0, stat(1, 100, 60)),
            ("a/b", "b", 1, stat(2, 60, 0)),
        ]);
        assert_eq!(render_collapsed(&spans, false), "a 40\na;b 60\n");
        assert_eq!(render_collapsed(&spans, true), "a 1\na;b 2\n");
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(1_500), "1.5 µs");
        assert_eq!(format_ns(2_000_000), "2.00 ms");
        assert_eq!(format_ns(3_000_000_000), "3.00 s");
    }
}
