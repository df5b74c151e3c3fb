//! Serial-vs-parallel pipeline benchmark.
//!
//! Runs every parallel stage of the pipeline twice — pinned to one
//! worker thread and at the resolved thread count — checks the results
//! are byte-identical, and records timings into `BENCH_pipeline.json`
//! under the `"pipeline"` key:
//!
//! ```text
//! cargo run --release -p tweetmob-bench --bin pipeline_bench
//! ```
//!
//! `Instant` lives behind tweetmob-obs, so the stopwatch is a private
//! always-on `MetricsRegistry`: each pass runs inside a uniquely named
//! span and the reading is that span's `total_ns`. On a single-core
//! host the parallel pass degrades to the serial path by design; the
//! honest `host_parallelism` is recorded next to the timings so the
//! numbers can be judged in context.

use std::collections::BTreeMap;
use tweetmob_bench::{emit_bench_metrics, print_header, standard_dataset, BENCH_METRICS_PATH};
use tweetmob_core::{extract_trips, AreaSet, Experiment, Scale};
use tweetmob_epidemic::{MobilityNetwork, OutbreakScenario};
use tweetmob_models::{Gravity4Fit, GravityGrid};
use tweetmob_obs::{Json, MetricsRegistry};
use tweetmob_synth::TweetGenerator;

/// Times one pass of `run` under a pinned thread count and returns
/// `(total_ns, result)`. The span name must be unique per call.
fn timed(
    stopwatch: &MetricsRegistry,
    name: &str,
    threads: usize,
    run: &dyn Fn() -> String,
) -> (u64, String) {
    let result = {
        let _timer = stopwatch.span(name);
        tweetmob_par::with_threads(threads, run)
    };
    let ns = stopwatch.span_stat(name).map_or(0, |s| s.total_ns);
    (ns, result)
}

/// Benchmarks one stage serial-vs-parallel: a warm-up pass, a pass at
/// one thread, a pass at `threads`, and a byte-equality check between
/// the two results.
fn bench_stage(
    stopwatch: &MetricsRegistry,
    name: &str,
    threads: usize,
    run: &dyn Fn() -> String,
) -> Json {
    let _ = tweetmob_par::with_threads(1, run); // warm-up
    let (serial_ns, serial_out) = timed(stopwatch, &format!("{name}/serial"), 1, run);
    let (parallel_ns, parallel_out) = timed(stopwatch, &format!("{name}/parallel"), threads, run);
    let identical = serial_out == parallel_out;
    let speedup = if parallel_ns > 0 {
        serial_ns as f64 / parallel_ns as f64
    } else {
        0.0
    };
    println!(
        "  {name:<20} serial {:>10} ns   parallel {:>10} ns   speedup {speedup:>5.2}x   identical: {identical}",
        serial_ns, parallel_ns
    );
    Json::obj([
        ("serial_ns", serial_ns.into()),
        ("parallel_ns", parallel_ns.into()),
        ("speedup", speedup.into()),
        ("identical", identical.into()),
    ])
}

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header(
        "PIPELINE BENCH — serial vs parallel stage timings",
        &cfg,
        &ds,
    );

    let threads = tweetmob_par::resolved_threads().max(2);
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("timing at 1 vs {threads} threads (host parallelism: {host})");
    println!();

    let stopwatch = MetricsRegistry::new();
    let mut stages = BTreeMap::new();

    // Stage 1: synthetic tweet generation (per-user fan-out).
    let gen_cfg = cfg.clone();
    stages.insert(
        "synth/generate".into(),
        bench_stage(&stopwatch, "synth/generate", threads, &move || {
            let ds = TweetGenerator::new(gen_cfg.clone()).generate();
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                ds.unique_users(),
                ds.user_starts(),
                ds.times(),
                ds.lats(),
                ds.lons()
            )
        }),
    );

    // Stage 2: trip extraction (per-user consecutive-pair scan).
    let areas = AreaSet::of_scale(Scale::National);
    stages.insert(
        "trips".into(),
        bench_stage(&stopwatch, "trips", threads, &|| {
            format!("{:?}", extract_trips(&ds, &areas))
        }),
    );

    // Stage 3: population estimation (per-area radius queries).
    let exp = Experiment::new(&ds);
    stages.insert(
        "population".into(),
        bench_stage(&stopwatch, "population", threads, &|| {
            let pop = exp
                .population_correlation(Scale::National)
                .expect("population correlation on the standard dataset");
            format!("{:?}", pop)
        }),
    );

    // Stage 4: gravity 4-parameter grid search (per-candidate fan-out).
    // The observations are assembled once, outside the timed region.
    let report = exp
        .mobility(Scale::National)
        .expect("mobility report on the standard dataset");
    let grid = GravityGrid::default();
    stages.insert(
        "gravity-grid".into(),
        bench_stage(&stopwatch, "gravity-grid", threads, &|| {
            let fit = Gravity4Fit::fit_grid(&report.observations, &grid)
                .expect("grid search over the default lattice");
            format!("{:?}", fit)
        }),
    );

    // Stage 5: stochastic epidemic replicates (per-replicate fan-out)
    // over a gravity network on the national OD flows.
    let od = extract_trips(&ds, &areas);
    let flows: Vec<(usize, usize, f64)> = od
        .iter_pairs()
        .map(|(i, j, count)| (i, j, count as f64))
        .collect();
    let populations = areas.census_populations();
    let network = MobilityNetwork::from_flows(populations, &flows, 0.05).expect("national network");
    let scenario = OutbreakScenario::new(network, 0.5, 0.2).seed(0, 100.0);
    stages.insert(
        "epidemic/replicates".into(),
        bench_stage(&stopwatch, "epidemic/replicates", threads, &|| {
            let timelines = scenario
                .run_stochastic_replicates(60.0, 0.5, 0xC0FFEE, 8)
                .expect("validated scenario");
            format!("{:?}", timelines)
        }),
    );

    let all_identical = stages.values().all(|s| s["identical"] == Json::Bool(true));
    println!();
    println!(
        "{} stages, all identical across thread counts: {all_identical}",
        stages.len()
    );

    let notes = Json::obj([
        ("stages", Json::Obj(stages)),
        ("threads", threads.into()),
        ("host_parallelism", host.into()),
        ("n_users", ds.n_users().into()),
        ("n_tweets", ds.n_tweets().into()),
    ]);
    if let Err(e) = emit_bench_metrics("pipeline", notes) {
        eprintln!("failed to write {BENCH_METRICS_PATH}: {e}");
        std::process::exit(1);
    }
    println!("wrote {BENCH_METRICS_PATH}");
    if !all_identical {
        eprintln!("error: a stage produced different results at different thread counts");
        std::process::exit(1);
    }
}
