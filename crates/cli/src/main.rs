//! `tweetmob` — command-line interface for the population/mobility
//! estimation pipeline.
//!
//! ```text
//! tweetmob generate --users 20000 --seed 7 out.jsonl   # or out.twc
//! tweetmob summary out.jsonl
//! tweetmob population out.jsonl --scale national
//! tweetmob mobility out.jsonl --scale state --extended
//! tweetmob mobility out.jsonl --scale national --metrics-out metrics.json --trace
//! tweetmob fit out.jsonl --artifact-out models.tma
//! tweetmob provenance models.tma
//! tweetmob predict --artifact-in models.tma --origin Sydney --top 5
//! tweetmob epidemic --artifact-in models.tma --beta 0.5 --gamma 0.2
//! tweetmob serve --artifact-in models.tma --bind 127.0.0.1:8787
//! ```
//!
//! Datasets are JSONL, the Twitter-shaped text format, or the columnar
//! binary `TWC0` format. Writers choose by the output extension (`.jsonl`
//! or `.twc`; any other is a usage error); readers detect `TWC0` by its
//! leading magic and read anything else as JSONL, so
//! `tweetmob convert --in tweets.jsonl --out tweets.twc` and back gives
//! the same bytes.
//!
//! `fit` is the only command that writes a model artifact; `predict`,
//! `epidemic` and `serve` read one with `--artifact-in` and never fit.

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
tweetmob — multi-scale population and mobility estimation from tweet streams
(reproduction of Liu et al., ICDE 2015)

USAGE:
    tweetmob <command> [args]

COMMANDS:
    generate <out.{jsonl,twc}>   generate a synthetic Australian tweet stream
        --users N                user count                    [default 20000]
        --seed N                 generator seed                [calibrated preset]
    convert                      re-encode a dataset between JSONL and TWC0
        --in PATH                input dataset (format auto-detected) [required]
        --out PATH               output dataset, .jsonl or .twc [required]
    summary <dataset>            Table-I statistics of a dataset
    population <dataset>         Fig.-3 population estimation
        --scale S                national | state | metro      [default national]
        --radius KM              override the search radius ε
    mobility <dataset>           Fig.-4 / Table-II mobility models
        --scale S                national | state | metro      [default national]
        --census                 use census (not Twitter) populations
        --extended               add Exp/Tanner/IPF model ablations
    fit <dataset>                fit models and save a reusable artifact
        --artifact-out PATH      where to write the artifact   [required]
        --scale S                national | state | metro      [default national]
        --census                 use census (not Twitter) populations
    predict                      answer flow queries from fitted models
        --artifact-in PATH       load a saved artifact         [required]
        --origin AREA            origin area name              [required]
        --dest AREA              pairwise query to one destination
        --top K                  ... or rank the top-K destinations [default 5]
        --model M                gravity4|gravity2|radiation|opportunities|all
        --json                   machine-readable output
    epidemic                     SIR/SEIR outbreak over fitted gravity flows
        --artifact-in PATH       load a saved artifact         [required]
        --beta X                 transmission rate per day     [default 0.5]
        --gamma X                recovery rate per day         [default 0.2]
        --sigma X                incubation rate (enables SEIR)
        --seed-city NAME         outbreak origin               [default Sydney]
        --days N                 horizon in days               [default 365]
        --restrict DAY:FACTOR    travel restriction, e.g. 30:0.1
        --immune F               initial immune fraction       [default 0]
    serve                        HTTP API over a fitted artifact
        --artifact-in PATH       load a saved artifact         [required]
        --bind ADDR              listen address                [default 127.0.0.1:8787]
                             worker pool sized by --threads; endpoints:
                             /healthz /population /predict /top_k
                             /epidemic /provenance /metrics
    export <dataset> <out.json>  machine-readable results of all experiments
    provenance <artifact.tma>    print an artifact's embedded run manifest
                             and verify its recorded input hashes
    help                         this text

GLOBAL FLAGS (accepted by every command):
    --metrics-out PATH       write pipeline metrics (counters, gauges,
                             histograms, run manifest, span timings) as
                             JSON after the run
    --metrics-redacted       zero durations and execution-shape fields
                             in --metrics-out and weight --trace-out
                             stacks by call count; byte-identical across
                             same-seed runs
    --trace                  print the span trace tree to stderr
    --trace-out PATH         write the span tree as collapsed flamegraph
                             stacks (`frame;frame weight`, weight = self
                             time in ns)
    --threads N              worker threads for parallel stages, 1 to
                             256 (overrides TWEETMOB_THREADS; results
                             are identical at every thread count)
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(raw) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("run `tweetmob help` for usage");
            1
        }
    };
    std::process::exit(code);
}

/// A subcommand implementation in `commands`.
type CommandFn = fn(&Args) -> Result<(), Box<dyn std::error::Error>>;

/// A dispatch-table row: the handler, how many positionals the command
/// reads, its valued flags and its switches.
type Command = (
    CommandFn,
    usize,
    &'static [&'static str],
    &'static [&'static str],
);

fn run(raw: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let command = raw.first().cloned().unwrap_or_else(|| "help".into());
    let rest = raw.into_iter().skip(1);
    let (handler, positionals, valued, switches): Command = match command.as_str() {
        "generate" => (commands::generate, 1, &["users", "seed"], &[]),
        "convert" => (commands::convert, 0, &["in", "out"], &[]),
        "summary" => (commands::summary, 1, &[], &[]),
        "population" => (commands::population, 1, &["scale", "radius"], &[]),
        "mobility" => (commands::mobility, 1, &["scale"], &["census", "extended"]),
        "fit" => (commands::fit, 1, &["scale", "artifact-out"], &["census"]),
        "predict" => (
            commands::predict,
            0,
            &["artifact-in", "model", "origin", "dest", "top"],
            &["json"],
        ),
        "epidemic" => (
            commands::epidemic,
            0,
            &[
                "artifact-in",
                "beta",
                "gamma",
                "sigma",
                "seed-city",
                "days",
                "restrict",
                "immune",
            ],
            &[],
        ),
        "serve" => (commands::serve, 0, &["artifact-in", "bind"], &[]),
        "export" => (commands::export, 2, &[], &[]),
        "provenance" => (commands::provenance, 1, &[], &[]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}").into()),
    };
    // Every subcommand also accepts the global observability flags.
    let args = Args::parse_with_observability(rest, positionals, valued, switches)?;
    if let Some(n) = args.get(args::THREADS) {
        let n = tweetmob_par::parse_threads(n).ok_or_else(|| {
            args::ArgError(format!(
                "--threads {n:?}: expected a positive integer at most {}",
                tweetmob_par::MAX_THREADS
            ))
        })?;
        tweetmob_par::set_threads_override(Some(n));
    }
    let result = handler(&args);
    // Metrics are emitted even after a failed command — a partial run's
    // counters, spans and manifest are exactly what is needed to debug
    // it, with `run/outcome` recording how the run ended.
    let emitted = commands::emit_observability(&args, &command, result.is_ok());
    result.and(emitted)
}
