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
//! tweetmob paper all --users 20000                   # the paper's tables and figures
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
//!
//! `paper <artifact>` regenerates one of the paper's tables, figures or
//! extension experiments (the [`paper`] module lists them) on a corpus
//! generated in process, as `generate` would write it.
//!
//! Every command writes its standard output through one [`Out`], so a
//! closed stdout (`tweetmob summary d.twc | head -1`) ends the run
//! quietly with status 0 instead of a `println!` panic. Standard error
//! goes through [`stderr`], which drops what a closed stderr cannot
//! take where `eprintln!` would panic.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod args;
mod commands;
mod paper;

use args::Args;
use std::fmt;
use std::io::{self, BufWriter, StdoutLock, Write as _};

/// A command's standard output: one locked, buffered writer. Its
/// `write_fmt` and `flush` fail with [`OutputError`], so
/// `writeln!(out, ..)?` turns a failed write into a typed error where
/// `println!` would panic.
pub(crate) struct Out(BufWriter<StdoutLock<'static>>);

impl Out {
    fn stdout() -> Self {
        Out(BufWriter::new(io::stdout().lock()))
    }

    /// Writes formatted text; the target of `write!` and `writeln!`.
    pub(crate) fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), OutputError> {
        self.0.write_fmt(args).map_err(OutputError)
    }

    /// Writes out everything buffered so far.
    pub(crate) fn flush(&mut self) -> Result<(), OutputError> {
        self.0.flush().map_err(OutputError)
    }
}

/// Writing to standard output failed.
#[derive(Debug)]
pub(crate) struct OutputError(io::Error);

impl OutputError {
    /// Whether the reader of stdout has gone away (`| head`): it has
    /// read all it wanted, so this ends the run without an error.
    fn is_closed_pipe(&self) -> bool {
        self.0.kind() == io::ErrorKind::BrokenPipe
    }
}

impl fmt::Display for OutputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write to stdout: {}", self.0)
    }
}

impl std::error::Error for OutputError {}

/// Writes a diagnostic to standard error, ignoring a failed write: once
/// stderr's reader has gone there is nobody left to tell, and the exit
/// status still reports how the run ended.
pub(crate) fn stderr(args: fmt::Arguments<'_>) {
    io::stderr().write_fmt(args).ok();
}

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
    paper <artifact>             regenerate a table, figure or experiment of
                             the paper on a generated corpus; artifacts:
                             table1 fig1 fig2 fig3 fig4 table2
                             counterfactual temporal ablation_models
                             displacement, figures (SVGs under
                             figures/) and all (the ten text ones)
        --users N                user count                    [default 20000]
        --seed N                 generator seed                [calibrated preset]
        --sweep                  fig3 only: add the metro ε sweep
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
        Err(e)
            if e.downcast_ref::<OutputError>()
                .is_some_and(OutputError::is_closed_pipe) =>
        {
            0
        }
        Err(e) => {
            stderr(format_args!("error: {e}\n"));
            // Only a usage error earns the pointer to the usage text.
            if e.is::<args::ArgError>() {
                stderr(format_args!("\nrun `tweetmob help` for usage\n"));
            }
            1
        }
    };
    std::process::exit(code);
}

/// A subcommand implementation in `commands`.
type CommandFn = fn(&Args, &mut Out) -> Result<(), Box<dyn std::error::Error>>;

/// A dispatch-table row: the handler, how many positionals the command
/// reads, its valued flags and its switches.
type Command = (
    CommandFn,
    usize,
    &'static [&'static str],
    &'static [&'static str],
);

fn run(raw: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = Out::stdout();
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
        "paper" => (paper::paper, 1, &["users", "seed"], &["sweep"]),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            return Ok(out.flush()?);
        }
        other => return Err(args::ArgError(format!("unknown command {other:?}")).into()),
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
    let result = handler(&args, &mut out).and_then(|()| Ok(out.flush()?));
    // Metrics are emitted even after a failed command — a partial run's
    // counters, spans and manifest are exactly what is needed to debug
    // it, with `run/outcome` recording how the run ended.
    let emitted = commands::emit_observability(&args, &command, result.is_ok());
    result.and(emitted)
}
