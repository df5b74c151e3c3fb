//! # tweetmob-bench
//!
//! Paper-regeneration binaries and performance benches.
//!
//! One binary per paper artifact (run with
//! `cargo run --release -p tweetmob-bench --bin <name>`):
//!
//! | binary   | regenerates                                             |
//! |----------|---------------------------------------------------------|
//! | `table1` | Table I — dataset statistics                            |
//! | `fig1`   | Fig. 1 — tweet-density map of Australia                 |
//! | `fig2`   | Fig. 2 — tweets/user and waiting-time distributions     |
//! | `fig3`   | Fig. 3 — population correlation at three scales + ε sweep |
//! | `fig4`   | Fig. 4 — estimated-vs-extracted mobility scatters       |
//! | `table2` | Table II — Pearson + HitRate@50% per scale × model      |
//! | `all`    | everything above in sequence                            |
//!
//! Environment knobs (all optional):
//!
//! * `TWEETMOB_USERS` — synthetic user count (default 20,000; the paper's
//!   own scale is 473,956 — pass it for a full-scale run).
//! * `TWEETMOB_SEED` — generator seed (default the calibrated preset).

pub mod regress;

use std::collections::BTreeMap;
use tweetmob_data::TweetDataset;
use tweetmob_obs::Json;
use tweetmob_synth::{GeneratorConfig, TweetGenerator};

/// The rolling bench-metrics document the regeneration binaries append
/// to: one top-level key per binary, each holding that run's pipeline
/// metrics (spans, counters, histograms) from the global registry.
pub const BENCH_METRICS_PATH: &str = "BENCH_pipeline.json";

/// The kernel-benchmark document `kernels_bench` writes: old-vs-new
/// timings for the pairwise-distance construction and the gravity grid
/// search at several thread counts, plus byte-equality verdicts.
pub const BENCH_KERNELS_PATH: &str = "BENCH_kernels.json";

/// The serving-latency document `serve_load` writes: p50/p99 request
/// latency and sustained req/s against an in-process `tweetmob-serve`
/// server at 1–8 concurrent clients.
pub const BENCH_SERVE_PATH: &str = "BENCH_serve.json";

/// The paper-scale document `paperscale_bench` writes: per-stage
/// timings of a full 6.3M-tweet / 474k-user end-to-end run (generate →
/// encode → load → population → trips → model fits) at 1–8 threads,
/// with byte-identity verdicts.
pub const BENCH_PAPERSCALE_PATH: &str = "BENCH_paperscale.json";

/// Builds the standard experiment dataset, honouring the
/// `TWEETMOB_USERS` / `TWEETMOB_SEED` environment knobs.
pub fn standard_dataset() -> (GeneratorConfig, TweetDataset) {
    let mut cfg = GeneratorConfig::default();
    if let Some(n) = env_u64("TWEETMOB_USERS") {
        cfg.n_users = n.clamp(1, u32::MAX as u64) as u32;
    }
    if let Some(seed) = env_u64("TWEETMOB_SEED") {
        cfg.seed = seed;
    }
    let ds = TweetGenerator::new(cfg.clone()).generate();
    (cfg, ds)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Merges this process's global metrics registry into
/// [`BENCH_METRICS_PATH`] under `bin_name`, creating the file when
/// absent. `extra` (skipped when `null`) lands next to the metrics as
/// `notes` — e.g. the overhead measurement below. A malformed existing
/// document is replaced rather than treated as an error, so a broken
/// bench run can never wedge all future ones.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn emit_bench_metrics(bin_name: &str, extra: Json) -> std::io::Result<()> {
    emit_bench_metrics_to(BENCH_METRICS_PATH, bin_name, extra)
}

/// As [`emit_bench_metrics`] but into an explicit document path, for
/// benches with their own artifact (e.g. `kernels_bench` →
/// [`BENCH_KERNELS_PATH`]).
///
/// # Errors
///
/// Propagates file-system failures.
pub fn emit_bench_metrics_to(path: &str, bin_name: &str, extra: Json) -> std::io::Result<()> {
    let mut doc = read_json_object(path);
    let metrics = Json::parse(&tweetmob_obs::global().to_json()).unwrap_or(Json::Null);
    let mut entry = BTreeMap::from([("metrics".to_string(), metrics)]);
    if !extra.is_null() {
        entry.insert("notes".to_string(), extra);
    }
    doc.insert(bin_name.to_string(), Json::Obj(entry));
    write_json(path, &Json::Obj(doc))
}

/// The JSON object stored at `path`, or an empty one when the file is
/// absent, unreadable or not an object.
#[must_use]
pub fn read_json_object(path: &str) -> BTreeMap<String, Json> {
    match std::fs::read_to_string(path).map(|s| Json::parse(&s)) {
        Ok(Ok(Json::Obj(map))) => map,
        _ => BTreeMap::new(),
    }
}

/// Writes `doc` pretty-printed, with a trailing newline.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write_json(path: &str, doc: &Json) -> std::io::Result<()> {
    std::fs::write(path, doc.to_pretty() + "\n")
}

/// Times `workload` once with the global registry enabled and once
/// disabled (the no-op baseline), returning `(enabled_ns, disabled_ns)`.
/// A warm-up pass runs first so caches don't bias the enabled pass. The
/// stopwatch is a private always-on registry — the global one can't time
/// its own disabled pass.
pub fn measure_instrumentation_overhead<F: FnMut()>(mut workload: F) -> (u64, u64) {
    let stopwatch = tweetmob_obs::MetricsRegistry::new();
    let global = tweetmob_obs::global();
    workload();
    {
        let _timer = stopwatch.span("enabled");
        workload();
    }
    global.set_enabled(false);
    {
        let _timer = stopwatch.span("disabled");
        workload();
    }
    global.set_enabled(true);
    let ns = |name: &str| stopwatch.span_stat(name).map_or(0, |s| s.total_ns);
    (ns("enabled"), ns("disabled"))
}

/// Prints the standard run header (dataset provenance) every regeneration
/// binary starts with.
pub fn print_header(title: &str, cfg: &GeneratorConfig, ds: &TweetDataset) {
    println!("================================================================");
    println!("{title}");
    println!(
        "synthetic dataset: {} users, {} tweets (seed 0x{:X})",
        ds.n_users(),
        ds.n_tweets(),
        cfg.seed
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_dataset_is_deterministic() {
        // Only exercise the plumbing with a tiny run; the env override
        // path is covered by setting the vars inside this process.
        std::env::set_var("TWEETMOB_USERS", "300");
        std::env::set_var("TWEETMOB_SEED", "12345");
        let (cfg, ds) = standard_dataset();
        assert_eq!(cfg.n_users, 300);
        assert_eq!(cfg.seed, 12345);
        assert_eq!(ds.n_users(), 300);
        std::env::remove_var("TWEETMOB_USERS");
        std::env::remove_var("TWEETMOB_SEED");
    }

    #[test]
    fn overhead_measurement_times_both_passes() {
        let (on, off) = measure_instrumentation_overhead(|| {
            tweetmob_obs::counter!("bench-test/work").add(1);
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        assert!(on > 0, "enabled pass was timed");
        assert!(off > 0, "disabled pass was timed");
        // Three workload calls ran (warm-up, enabled, disabled) but the
        // disabled pass must not have recorded into the global registry.
        assert_eq!(
            tweetmob_obs::global().counter_value("bench-test/work"),
            Some(2)
        );
        assert!(tweetmob_obs::global().is_enabled(), "re-enabled afterwards");
    }
}
