//! Command implementations.

use crate::args::{ArgError, Args};
use crate::{stderr, Out};
use std::fs::File;
use std::io::{BufRead as _, BufReader, BufWriter};
use tweetmob_core::{
    correlation_json, data_funnel, deterrence_ablation, AreaSet, Experiment, ExperimentError,
    PooledPopulation, PopulationSource, Scale,
};
use tweetmob_data::{columnar, io as dataio, DatasetSummary, ModelBundle, TweetDataset};
use tweetmob_epidemic::{MobilityNetwork, OutbreakScenario, SeirParams};
use tweetmob_models::ModelKind;
use tweetmob_obs::{Json, ToJson};
use tweetmob_serve::{predict_json, top_k_json};
use tweetmob_synth::{GeneratorConfig, TweetGenerator};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// `tweetmob export <dataset> <out.json>` — machine-readable results of
/// every scale's population and mobility experiment.
pub(crate) fn export(args: &Args, out: &mut Out) -> Result<()> {
    let ds = dataset_arg(args)?;
    let out_path = args.positional(1).ok_or_else(|| missing("output path"))?;
    let exp = Experiment::new(&ds);
    let mut scales = Vec::new();
    let mut populations = Vec::new();
    for scale in Scale::ALL {
        let population = exp.population_correlation(scale)?;
        let mobility = exp.mobility(scale)?;
        let evaluations = mobility.evaluations.iter().map(ToJson::to_json).collect();
        scales.push(Json::obj([
            ("scale", scale.name().into()),
            ("search_radius_km", scale.search_radius_km().into()),
            ("population", population.to_json()),
            (
                "mobility",
                Json::obj([
                    ("od_total", mobility.od_total.into()),
                    ("nonzero_pairs", mobility.nonzero_pairs.into()),
                    ("gravity4", mobility.gravity4.to_json()),
                    ("gravity2", mobility.gravity2.to_json()),
                    ("radiation", mobility.radiation.to_json()),
                    ("opportunities", mobility.opportunities.to_json()),
                    ("evaluations", Json::Arr(evaluations)),
                ]),
            ),
        ]));
        populations.push(population);
    }
    let pooled = PooledPopulation::of(populations).map_err(ExperimentError::from)?;
    let doc = Json::obj([
        ("n_tweets", ds.n_tweets().into()),
        ("n_users", ds.n_users().into()),
        ("summary", DatasetSummary::of(&ds).to_json()),
        (
            "pooled_population_correlation",
            correlation_json(&pooled.pooled),
        ),
        ("scales", Json::Arr(scales)),
    ]);
    std::fs::write(out_path, doc.to_pretty())
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    tweetmob_obs::manifest::record_output(out_path);
    writeln!(out, "wrote experiment results to {out_path}")?;
    Ok(())
}

/// Loads a dataset: the columnar `TWC0` format is detected by its
/// leading magic whatever the file is named; anything else is read as
/// JSONL. Every failure names the path and how far the read got, and
/// bumps the `data/load_errors` counter.
fn load(path: &str) -> Result<TweetDataset> {
    let _span = tweetmob_obs::span!("load");
    // Recorded before the read so a corrupt input still appears in the
    // failure manifest.
    tweetmob_obs::manifest::record_input(path);
    match read_dataset(path) {
        Ok(ds) if ds.is_empty() => {
            tweetmob_obs::counter!("data/load_errors").add(1);
            Err(format!("{path}: loaded 0 tweet records").into())
        }
        Ok(ds) => Ok(ds),
        Err(e) => {
            tweetmob_obs::counter!("data/load_errors").add(1);
            // The reader errors carry the failing line/record number;
            // prepend the path so the user knows which file died.
            Err(format!("cannot load {path}: {e}").into())
        }
    }
}

/// The raw read behind [`load`]: sniffs the leading four bytes for the
/// `TWC0` magic (so a `.twc` renamed to `.dat` still loads), else JSONL.
fn read_dataset(path: &str) -> Result<TweetDataset> {
    let file = File::open(path).map_err(|e| format!("cannot open: {e}"))?;
    let mut reader = BufReader::new(file);
    // fill_buf peeks without consuming, so either reader starts at byte 0
    // and validates the full header itself.
    let is_columnar = reader
        .fill_buf()
        .map_err(|e| format!("cannot read: {e}"))?
        .starts_with(&columnar::MAGIC);
    Ok(if is_columnar {
        columnar::read_columnar(reader)?
    } else {
        dataio::read_jsonl(reader)?
    })
}

/// Whether a dataset written to `out_path` is `TWC0` (`.twc`) or JSONL
/// (`.jsonl`). The extension is the only format switch, so any other
/// one is a usage error, caught before any work is done.
fn writes_columnar(out_path: &str) -> Result<bool> {
    match out_path.rsplit_once('.').map(|(_, ext)| ext) {
        Some("twc") => Ok(true),
        Some("jsonl") => Ok(false),
        _ => Err(ArgError(format!(
            "{out_path}: the output extension picks the dataset format, .jsonl or .twc"
        ))
        .into()),
    }
}

/// Writes a dataset as `TWC0` when `as_columnar`, else as JSONL.
fn write_dataset(ds: &TweetDataset, out_path: &str, as_columnar: bool) -> Result<()> {
    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let writer = BufWriter::new(file);
    if as_columnar {
        columnar::write_columnar(ds, writer)
    } else {
        dataio::write_jsonl(ds, writer)
    }
    .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    tweetmob_obs::manifest::record_output(out_path);
    Ok(())
}

/// `tweetmob convert --in <dataset> --out <out.{jsonl,twc}>` —
/// re-encode a dataset between JSONL and `TWC0`. The input format is
/// detected like every other load; the output format follows the output
/// extension. Conversion is lossless: a JSONL → `TWC0` → JSONL trip
/// gives back the same bytes.
pub(crate) fn convert(args: &Args, out: &mut Out) -> Result<()> {
    let input = args.get("in").ok_or_else(|| missing("--in PATH"))?;
    let out_path = args.get("out").ok_or_else(|| missing("--out PATH"))?;
    let as_columnar = writes_columnar(out_path)?;
    let ds = load(input)?;
    write_dataset(&ds, out_path, as_columnar)?;
    writeln!(
        out,
        "converted {} tweets from {} users: {input} → {out_path}",
        ds.n_tweets(),
        ds.n_users()
    )?;
    Ok(())
}

/// Assembles the run manifest: subcommand, normalized args, seed,
/// resolved thread count, outcome, content stamps of every recorded
/// input/output, and the (workspace-shared) crate versions.
///
/// Stamping re-reads each file at manifest time, under the
/// `manifest/stamp` span; a recorded path that has since vanished or
/// never existed (the failure case) is skipped rather than failing the
/// manifest itself.
fn build_manifest(args: &Args, subcommand: &str, outcome: &str) -> tweetmob_obs::RunManifest {
    let stamp = |paths: Vec<String>| -> Vec<tweetmob_obs::FileStamp> {
        let _span = tweetmob_obs::span!("manifest/stamp");
        paths
            .iter()
            .filter_map(|p| tweetmob_obs::FileStamp::of_file(p).ok())
            .collect()
    };
    // Every member pins `version.workspace`, so the CLI's own compile-
    // time version stamps the whole workspace.
    let crates = [
        "tweetmob-cli",
        "tweetmob-core",
        "tweetmob-data",
        "tweetmob-models",
        "tweetmob-obs",
    ]
    .into_iter()
    .map(|name| (name.to_string(), env!("CARGO_PKG_VERSION").to_string()))
    .collect();
    tweetmob_obs::RunManifest {
        subcommand: subcommand.to_string(),
        args: args.normalized(),
        seed: args.get("seed").and_then(|s| s.parse().ok()),
        threads: u64::try_from(tweetmob_par::resolved_threads()).unwrap_or(u64::MAX),
        outcome: outcome.to_string(),
        inputs: stamp(tweetmob_obs::manifest::recorded_inputs()),
        outputs: stamp(tweetmob_obs::manifest::recorded_outputs()),
        crates,
    }
}

/// The portable manifest `fit` embeds in its artifact's `PROV` section:
/// built before the artifact is written (the artifact cannot stamp
/// itself), rendered without outputs, outcome or thread count so
/// artifact bytes stay invariant across thread counts.
fn embedded_provenance(args: &Args) -> String {
    build_manifest(args, "fit", "ok")
        .to_embedded_json()
        .to_pretty()
}

/// Writes the metrics JSON (`--metrics-out`), the collapsed span stacks
/// (`--trace-out`) and prints the span tree (`--trace`) after a
/// command — including after one that failed, so a partial run's
/// counters and spans are still inspectable. Sets the `run/outcome`
/// gauge (0 ok, 1 error); the run manifest, whose stamps re-read every
/// input and output, is built only when the metrics document that
/// carries it is written.
pub(crate) fn emit_observability(args: &Args, subcommand: &str, ok: bool) -> Result<()> {
    let registry = tweetmob_obs::global();
    tweetmob_obs::gauge!("run/outcome").set(i64::from(!ok));
    let redact = args.has(crate::args::METRICS_REDACTED);
    if let Some(path) = args.get(crate::args::METRICS_OUT) {
        registry.set_manifest(build_manifest(
            args,
            subcommand,
            if ok { "ok" } else { "error" },
        ));
        let mut json = if redact {
            registry.to_json_redacted()
        } else {
            registry.to_json()
        };
        json.push('\n');
        std::fs::write(path, json).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        stderr(format_args!("wrote pipeline metrics to {path}\n"));
    }
    if let Some(path) = args.get(crate::args::TRACE_OUT) {
        std::fs::write(path, registry.to_collapsed_stacks(redact))
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        stderr(format_args!("wrote collapsed span stacks to {path}\n"));
    }
    if args.has(crate::args::TRACE) {
        stderr(format_args!("{}", registry.render_trace()));
    }
    Ok(())
}

/// `tweetmob provenance <artifact.tma>` — print the `PROV` manifest an
/// artifact carries and verify its recorded input hashes against the
/// files as they exist now.
pub(crate) fn provenance(args: &Args, out: &mut Out) -> Result<()> {
    let path = args
        .positional(0)
        .ok_or_else(|| missing("artifact argument"))?;
    let bundle = load_artifact(path)?;
    let Some(manifest) = bundle.provenance() else {
        return Err(format!(
            "{path}: artifact carries no PROV section (written before provenance support)"
        )
        .into());
    };
    writeln!(out, "{manifest}")?;
    let doc = Json::parse(manifest)
        .map_err(|e| format!("{path}: PROV payload is not valid JSON: {e}"))?;
    let mut mismatches = 0u32;
    for input in doc["inputs"].as_array().unwrap_or_default() {
        let (Some(p), Some(expected)) = (input["path"].as_str(), input["fnv1a64"].as_str()) else {
            continue;
        };
        match tweetmob_obs::manifest::fnv1a64_file(p) {
            Ok((_, hash)) => {
                let actual = format!("{hash:016x}");
                if actual == expected {
                    stderr(format_args!("input {p}: fnv1a64 {actual} verified\n"));
                } else {
                    stderr(format_args!(
                        "input {p}: MISMATCH manifest {expected} != file {actual}\n"
                    ));
                    mismatches += 1;
                }
            }
            Err(e) => stderr(format_args!("input {p}: not verifiable here ({e})\n")),
        }
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} input hash mismatch(es) against {path}").into());
    }
    Ok(())
}

/// The usage error for a required argument that was not given.
fn missing(what: &str) -> ArgError {
    ArgError(format!("missing {what}"))
}

fn dataset_arg(args: &Args) -> Result<TweetDataset> {
    let path = args
        .positional(0)
        .ok_or_else(|| missing("dataset argument"))?;
    load(path)
}

fn scale_arg(args: &Args) -> Result<Scale> {
    match args.get("scale").unwrap_or("national") {
        "national" => Ok(Scale::National),
        "state" => Ok(Scale::State),
        "metro" | "metropolitan" => Ok(Scale::Metropolitan),
        other => Err(ArgError(format!("unknown scale {other:?} (national|state|metro)")).into()),
    }
}

fn source_arg(args: &Args) -> PopulationSource {
    if args.has("census") {
        PopulationSource::Census
    } else {
        PopulationSource::Twitter
    }
}

/// Fits at the requested scale and returns the report plus the
/// persistable artifact bundle.
fn fit_bundle(
    args: &Args,
    ds: &TweetDataset,
) -> Result<(tweetmob_core::MobilityReport, ModelBundle)> {
    let scale = scale_arg(args)?;
    let exp = Experiment::new(ds);
    Ok(exp.fit_with(
        &AreaSet::of_scale(scale),
        source_arg(args),
        scale.name().to_string(),
    )?)
}

/// Loads a fitted artifact under the `artifact_in` span. The path is
/// recorded as a run input before the read, so a corrupt artifact still
/// appears in the failure manifest.
fn load_artifact(path: &str) -> Result<ModelBundle> {
    let _span = tweetmob_obs::span!("artifact_in");
    tweetmob_obs::manifest::record_input(path);
    Ok(ModelBundle::load_file(path)?)
}

/// The artifact named by `--artifact-in`: the only model source of
/// `predict`, `epidemic` and `serve`, which never fit.
fn artifact_in(args: &Args) -> Result<ModelBundle> {
    load_artifact(
        args.get("artifact-in")
            .ok_or_else(|| missing("--artifact-in PATH"))?,
    )
}

/// The synthetic-corpus generator of `generate` and `paper`: the
/// calibrated preset with the `--users` and `--seed` overrides. A value
/// that does not parse or that the generator rejects is a usage error.
pub(crate) fn generator(args: &Args) -> Result<TweetGenerator> {
    let mut cfg = GeneratorConfig::default();
    cfg.n_users = args.get_parsed("users", cfg.n_users)?;
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    Ok(TweetGenerator::try_new(cfg).map_err(|e| ArgError(e.to_string()))?)
}

/// `tweetmob generate <out.{jsonl,twc}> [--users N] [--seed N]`
pub(crate) fn generate(args: &Args, out: &mut Out) -> Result<()> {
    let out_path = args.positional(0).ok_or_else(|| missing("output path"))?;
    let as_columnar = writes_columnar(out_path)?;
    let ds = generator(args)?.generate();
    write_dataset(&ds, out_path, as_columnar)?;
    writeln!(
        out,
        "wrote {} tweets from {} users to {out_path}",
        ds.n_tweets(),
        ds.n_users()
    )?;
    Ok(())
}

/// `tweetmob summary <dataset>` — Table I statistics, then one data
/// funnel line per scale: tweets inside at least one area, and where the
/// consecutive same-user pairs go. The statistics run under the
/// `summary` span and each scale's scan under `funnel/<scale>`.
pub(crate) fn summary(args: &Args, out: &mut Out) -> Result<()> {
    let ds = dataset_arg(args)?;
    let table = {
        let _span = tweetmob_obs::span!("summary");
        DatasetSummary::of(&ds)
    };
    writeln!(out, "{table}")?;
    for scale in Scale::ALL {
        let funnel = {
            let _span = tweetmob_obs::span!(&format!("funnel/{}", scale.name().to_lowercase()));
            data_funnel(&ds, &AreaSet::of_scale(scale))
        };
        writeln!(
            out,
            "Funnel {} (ε = {} km): {funnel}",
            scale.name(),
            scale.search_radius_km()
        )?;
    }
    Ok(())
}

/// `tweetmob population <dataset> [--scale S] [--radius KM]`
pub(crate) fn population(args: &Args, out: &mut Out) -> Result<()> {
    let scale = scale_arg(args)?;
    let radius = args.get_parsed("radius", scale.search_radius_km())?;
    if !(radius.is_finite() && radius > 0.0) {
        return Err(ArgError(format!(
            "--radius {radius}: the search radius must be a positive, finite number of km"
        ))
        .into());
    }
    let ds = dataset_arg(args)?;
    let exp = Experiment::new(&ds);
    let pop = exp.population_correlation_with_radius(scale, radius)?;
    writeln!(out, "{} scale, ε = {radius} km", scale.name())?;
    writeln!(out, "{pop}")?;
    Ok(())
}

/// `tweetmob mobility <dataset> [--scale S] [--census] [--extended]` —
/// print the fitted models' report; `fit` is the command that saves them.
pub(crate) fn mobility(args: &Args, out: &mut Out) -> Result<()> {
    let ds = dataset_arg(args)?;
    let (report, _) = fit_bundle(args, &ds)?;
    write!(out, "{report}")?;
    if args.has("extended") {
        let ablation = deterrence_ablation(&report);
        for e in ablation.evaluations() {
            writeln!(out, "  {e}")?;
        }
        if let Ok((iters, _)) = &ablation.ipf {
            writeln!(out, "  (IPF converged in {iters} sweeps)")?;
        }
    }
    Ok(())
}

/// `tweetmob fit <dataset> --artifact-out PATH [--scale S] [--census]`
/// — the fit half of the fit-once / predict-many split: run the
/// mobility experiment and persist the fitted models with their
/// geometry so later `predict` / `epidemic` / `serve` runs need no
/// dataset. It is the only command that writes an artifact.
pub(crate) fn fit(args: &Args, out: &mut Out) -> Result<()> {
    let artifact_out = args
        .get("artifact-out")
        .ok_or_else(|| missing("--artifact-out PATH"))?;
    let ds = dataset_arg(args)?;
    let (report, mut bundle) = fit_bundle(args, &ds)?;
    bundle.set_provenance(embedded_provenance(args));
    {
        let _span = tweetmob_obs::span!("artifact_out");
        bundle
            .save_file(artifact_out)
            .map_err(|e| format!("cannot write {artifact_out}: {e}"))?;
    }
    tweetmob_obs::manifest::record_output(artifact_out);
    write!(out, "{report}")?;
    writeln!(
        out,
        "artifact: {} areas, {} populations, models fitted on {} trips → {artifact_out}",
        bundle.len(),
        bundle.meta().population_source,
        report.od_total
    )?;
    Ok(())
}

/// `tweetmob predict --artifact-in PATH --origin NAME [--dest NAME |
/// --top K] [--model M|all] [--json]` — answer pairwise or top-k flow
/// queries from a saved artifact, without a dataset or a refit.
pub(crate) fn predict(args: &Args, out: &mut Out) -> Result<()> {
    let bundle = artifact_in(args)?;
    let model_flag = args.get("model").unwrap_or("all");
    let kinds: Vec<ModelKind> = if model_flag.eq_ignore_ascii_case("all") {
        ModelKind::ALL.to_vec()
    } else {
        // `resolve_model`'s QueryError names the valid spellings; the
        // CLI adds the `all` alias it layers on top.
        vec![ModelBundle::resolve_model(model_flag).map_err(|e| format!("{e}, or all"))?]
    };
    let origin_name = args.get("origin").ok_or_else(|| missing("--origin AREA"))?;
    let origin = bundle.resolve_area(origin_name)?;
    let origin_name = bundle.areas()[origin].name.clone();

    if let Some(dest_name) = args.get("dest") {
        let dest = bundle.resolve_area(dest_name)?;
        if dest == origin {
            return Err("--origin and --dest name the same area".into());
        }
        if args.has("json") {
            writeln!(out, "{}", predict_json(&bundle, &kinds, origin, dest)?)?;
        } else {
            writeln!(
                out,
                "{origin_name} → {} ({:.1} km)",
                bundle.areas()[dest].name,
                bundle.geometry().distance(origin, dest)
            )?;
            for &k in &kinds {
                writeln!(
                    out,
                    "  {:<14} {:.3}",
                    k.key(),
                    bundle.predict(k, origin, dest)?
                )?;
            }
        }
    } else {
        let k: usize = args.get_parsed("top", 5)?;
        if args.has("json") {
            writeln!(out, "{}", top_k_json(&bundle, &kinds, origin, k)?)?;
        } else {
            for &kind in &kinds {
                writeln!(
                    out,
                    "top {k} destinations from {origin_name} ({}):",
                    kind.key()
                )?;
                for (dest, flow) in bundle.top_k(kind, origin, k)? {
                    writeln!(out, "  {:<16} {flow:.3}", bundle.areas()[dest].name)?;
                }
            }
        }
    }
    Ok(())
}

/// `tweetmob epidemic --artifact-in PATH [--beta X] [--gamma X]
/// [--sigma X] [--seed-city NAME] [--days N] [--restrict DAY:FACTOR]
/// [--immune F]`
pub(crate) fn epidemic(args: &Args, out: &mut Out) -> Result<()> {
    let beta: f64 = args.get_parsed("beta", 0.5)?;
    let gamma: f64 = args.get_parsed("gamma", 0.2)?;
    let days: f64 = args.get_parsed("days", 365.0)?;
    let seed_city = args.get("seed-city").unwrap_or("Sydney");

    // The outbreak runs over the gravity flows of a saved fit, with the
    // network built from the bundle over census populations (the
    // paper's proposed pipeline).
    let bundle = artifact_in(args)?;
    let seed_patch = bundle
        .area_index(seed_city)
        .ok_or_else(|| format!("unknown seed city {seed_city:?}"))?;
    let n = bundle.len();
    let gravity_gamma = bundle.models().gravity2.gamma;
    let network = MobilityNetwork::from_artifact(&bundle, ModelKind::Gravity2, 0.02)?;

    let mut scenario = OutbreakScenario::new(network, beta, gamma).seed(seed_patch, 20.0);
    let immune: f64 = args.get_parsed("immune", 0.0)?;
    if immune > 0.0 {
        scenario = scenario.with_initial_immunity(immune);
    }
    if let Some(sigma) = args.get("sigma") {
        let sigma: f64 = sigma
            .parse()
            .map_err(|e| ArgError(format!("--sigma: {e}")))?;
        scenario = scenario.with_seir(SeirParams { sigma });
    }
    if let Some(spec) = args.get("restrict") {
        let (day, factor) = spec
            .split_once(':')
            .ok_or_else(|| ArgError("--restrict wants DAY:FACTOR, e.g. 30:0.1".into()))?;
        scenario = scenario.with_travel_restriction(
            day.parse()
                .map_err(|e| ArgError(format!("--restrict day: {e}")))?,
            factor
                .parse()
                .map_err(|e| ArgError(format!("--restrict factor: {e}")))?,
        );
    }
    let timeline = scenario.run_deterministic(days, 0.25)?;

    writeln!(
        out,
        "outbreak seeded in {seed_city} (β = {beta}, γ = {gamma}, R0 ≈ {:.1}), gravity γ = {:.2}",
        beta / gamma,
        gravity_gamma
    )?;
    writeln!(
        out,
        "{:<16} {:>12} {:>14} {:>14}",
        "city", "arrival(day)", "peak infected", "final size"
    )?;
    let mut rows: Vec<(usize, Option<f64>)> = (0..n)
        .map(|p| (p, timeline.arrival_time(p, 100.0)))
        .collect();
    rows.sort_by(|a, b| {
        a.1.unwrap_or(f64::INFINITY)
            .total_cmp(&b.1.unwrap_or(f64::INFINITY))
    });
    for (p, arrival) in rows {
        writeln!(
            out,
            "{:<16} {:>12} {:>14.0} {:>14.0}",
            bundle.areas()[p].name,
            arrival.map_or("never".into(), |t| format!("{t:.0}")),
            timeline.peak_infected(p),
            timeline.final_size(p)
        )?;
    }
    Ok(())
}

/// `tweetmob serve --artifact-in PATH [--bind ADDR]` — load a fitted
/// artifact once and answer flow queries over HTTP until killed. The
/// worker-pool size follows `--threads` / `TWEETMOB_THREADS` like every
/// other command; the resolved listen address is printed (and stdout
/// flushed) before serving starts, so a supervisor binding port `0` can
/// read where the kernel put us.
pub(crate) fn serve(args: &Args, out: &mut Out) -> Result<()> {
    let bundle = artifact_in(args)?;
    let bind = args.get("bind").unwrap_or("127.0.0.1:8787");
    let workers = tweetmob_par::resolved_threads();
    let areas = bundle.len();
    let state = tweetmob_serve::AppState::new(std::sync::Arc::new(bundle));
    let handle = tweetmob_serve::serve(bind, state, workers)?;
    writeln!(
        out,
        "listening on {} ({areas} areas, {} worker threads)",
        handle.addr(),
        handle.workers()
    )?;
    out.flush()?;
    handle.join();
    Ok(())
}
