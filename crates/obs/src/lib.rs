//! # tweetmob-obs
//!
//! Structured observability for the `tweetmob` pipeline: span timers
//! with nested scopes, atomic counters and gauges, fixed-bucket
//! histograms, and a [`MetricsRegistry`] that serializes everything to a
//! stable, deterministic JSON document.
//!
//! The design constraints, in order:
//!
//! 1. **Determinism of results is untouchable.** Timing never feeds a
//!    result-bearing field; the JSON document is `BTreeMap`-ordered and
//!    carries no wall-clock timestamp, so two runs of the same seeded
//!    pipeline differ only in `*_ns` duration fields.
//!    [`MetricsRegistry::to_json_redacted`] zeroes those for
//!    byte-identical comparison.
//! 2. **Near-zero cost.** Counter/gauge/histogram handles are a couple of
//!    relaxed atomics per record; span open/close locks a `Mutex` but
//!    spans wrap pipeline *stages* (load, trip extraction, each model
//!    fit), not inner loops.
//! 3. **No dependencies.** Every pipeline crate links this, so it is
//!    `std`-only. Its [`mod@json`] module is the workspace's one JSON
//!    value, writer and reader.
//!
//! Pipeline crates record into the process-wide [`global`] registry via
//! the [`span!`] / [`counter!`] macros:
//!
//! ```
//! let _guard = tweetmob_obs::span!("fit/gravity4");
//! tweetmob_obs::counter!("trips/extracted").add(42);
//! // ... stage work ...
//! drop(_guard);
//! let json = tweetmob_obs::global().to_json();
//! assert!(json.contains("fit/gravity4"));
//! ```
//!
//! Tests and benches that need isolation construct their own
//! [`MetricsRegistry`] instead.
//!
//! Each span path has one record, a [`SpanStat`] (calls, total, min,
//! max and child time). The span tree renders as indented text
//! ([`MetricsRegistry::render_trace`]) or as collapsed flamegraph stacks
//! ([`MetricsRegistry::to_collapsed_stacks`]). The registry can also
//! carry a [`RunManifest`] ([`mod@manifest`]) — the run's provenance
//! (args, seed, input/output content hashes, crate versions) —
//! serialized into the metrics document and embeddable in artifacts.
//!
//! This crate is the one place in the workspace permitted to call
//! `std::time::Instant::now` — clippy's `disallowed-methods` (see
//! `clippy.toml`) enforces that everything else routes timing through
//! this API.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod histogram;
pub mod json;
pub mod manifest;
mod registry;
mod span;
mod trace;

pub use histogram::Histogram;
pub use json::{Json, ToJson};
pub use manifest::{FileStamp, RunManifest};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use span::{SpanGuard, SpanStat, Timer, SERVE_LATENCY_BOUNDS_NS};

use std::sync::OnceLock;

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every pipeline crate records into. Created
/// on first touch.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Opens a span on the [`global`] registry. Bind the guard to a named
/// variable (`let _guard = span!("load");`) — binding to `_` drops it
/// immediately and records nothing.
#[macro_export]
macro_rules! span {
    ($path:expr) => {
        $crate::global().span($path)
    };
}

/// The counter registered under a name on the [`global`] registry.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::global().counter($name)
    };
}

/// The gauge registered under a name on the [`global`] registry.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::global().gauge($name)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_shared() {
        let c = crate::counter!("lib-test/shared");
        c.add(2);
        assert_eq!(super::global().counter_value("lib-test/shared"), Some(2));
    }

    #[test]
    fn macros_compose_with_nesting() {
        {
            let _outer = crate::span!("lib-test/outer");
            let _inner = crate::span!("inner");
        }
        let paths = super::global().span_paths();
        assert!(paths.iter().any(|p| p == "lib-test/outer/inner"));
    }
}
