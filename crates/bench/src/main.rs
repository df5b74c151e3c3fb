//! # tweetmob-bench
//!
//! The paper-regeneration binary. Its one argument names the artifact
//! (`cargo run --release -p tweetmob-bench -- <artifact>`):
//!
//! | artifact          | regenerates                                               |
//! |-------------------|-----------------------------------------------------------|
//! | `table1`          | Table I — dataset statistics                              |
//! | `fig1`            | Fig. 1 — tweet-density map of Australia                   |
//! | `fig2`            | Fig. 2 — tweets/user and waiting-time distributions       |
//! | `fig3`            | Fig. 3 — population correlation at three scales (`--sweep` adds the ε ablation) |
//! | `fig4`            | Fig. 4 — estimated-vs-extracted mobility scatters         |
//! | `table2`          | Table II — Pearson + HitRate@50% per scale × model        |
//! | `counterfactual`  | E11 — Australia vs a uniform country                      |
//! | `temporal`        | E12 — population estimates month by month                 |
//! | `ablation_models` | E13 — seven models × three scales                         |
//! | `displacement`    | E14 — consecutive-tweet jump lengths                      |
//! | `figures`         | Figs. 1–4 drawn as SVG files under `figures/`             |
//! | `all`             | the ten text artifacts above, in order, on one dataset    |
//!
//! Environment knobs (all optional):
//!
//! * `TWEETMOB_USERS` — synthetic user count (default 20,000; the paper's
//!   own scale is 473,956 — pass it for a full-scale run).
//! * `TWEETMOB_SEED` — generator seed (default the calibrated preset).
//!
//! A missing or unknown artifact, or an extra argument, prints the list of
//! artifacts and exits 2; a failed artifact exits 1.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod axes;
mod chart;
mod extensions;
mod figures;
mod heatmap;
mod svg;
mod text;

use std::cell::OnceCell;
use std::error::Error;
use std::process::ExitCode;
use tweetmob_core::{Experiment, ExperimentError, MobilityReport, PopulationCorrelation, Scale};
use tweetmob_data::TweetDataset;
use tweetmob_geo::{DensityGrid, AUSTRALIA_BBOX};
use tweetmob_models::{FittedModel, FlowObservation};
use tweetmob_stats::binning::{BinStat, LogBins};
use tweetmob_stats::StatsError;
use tweetmob_synth::{GeneratorConfig, TweetGenerator};

/// An artifact's outcome: an error is reported on stderr.
type Outcome = Result<(), Box<dyn Error>>;

/// An artifact: prints to stdout, or (`figures`) writes files.
type Artifact = fn(&Study) -> Outcome;

/// Every artifact by name; `all` runs the first ten, in this order.
const ARTIFACTS: [(&str, Artifact); 12] = [
    ("table1", text::table1),
    ("fig1", text::fig1),
    ("fig2", text::fig2),
    ("fig3", text::fig3),
    ("fig4", text::fig4),
    ("table2", text::table2),
    ("counterfactual", extensions::counterfactual),
    ("temporal", extensions::temporal),
    ("ablation_models", extensions::ablation_models),
    ("displacement", extensions::displacement),
    ("figures", figures::figures),
    ("all", all),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, sweep) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [name] => (name, false),
        ["fig3", "--sweep"] => ("fig3", true),
        _ => return usage(),
    };
    let Some(&(_, run)) = ARTIFACTS.iter().find(|(n, _)| *n == name) else {
        return usage();
    };
    match run(&Study::new(config(), sweep)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tweetmob-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    eprintln!("usage: tweetmob-bench <artifact>, or tweetmob-bench fig3 --sweep");
    eprintln!("artifacts: {}", names.join(" "));
    ExitCode::from(2)
}

/// Runs the ten text artifacts in order on one study, each after a blank
/// line; a failed artifact does not stop the ones after it.
fn all(study: &Study) -> Outcome {
    let mut failed = Vec::new();
    for &(name, run) in &ARTIFACTS[..10] {
        println!();
        if let Err(e) = run(study) {
            eprintln!("{name}: {e}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(" ")).into())
    }
}

/// The generator configuration of every artifact: the calibrated preset
/// with the `TWEETMOB_USERS` (at least 1) and `TWEETMOB_SEED` overrides.
fn config() -> GeneratorConfig {
    let env_u64 = |name| std::env::var(name).ok()?.trim().parse::<u64>().ok();
    let mut cfg = GeneratorConfig::default();
    if let Some(n) = env_u64("TWEETMOB_USERS") {
        cfg.n_users = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
    }
    if let Some(seed) = env_u64("TWEETMOB_SEED") {
        cfg.seed = seed;
    }
    cfg
}

/// The generated dataset and the series the artifacts share. Each is
/// computed on first use, so `all` computes it once and the text and SVG
/// renderings read the same values.
struct Study {
    cfg: GeneratorConfig,
    /// fig3's `--sweep`: append the metropolitan ε sweep.
    sweep: bool,
    dataset: OnceCell<TweetDataset>,
    grid: OnceCell<DensityGrid>,
    dynamics: OnceCell<[Pdf; 2]>,
    populations: OnceCell<Vec<Result<PopulationCorrelation, ExperimentError>>>,
    mobility: OnceCell<Vec<Result<Mobility, ExperimentError>>>,
}

/// Fig. 2 series: raw samples and their log-binned PDF (non-empty bins).
struct Pdf {
    samples: Vec<f64>,
    bins: Result<Vec<BinStat>, StatsError>,
}

/// One scale's fitted models and their three Fig. 4 panels.
struct Mobility {
    report: MobilityReport,
    panels: [Panel; 3],
}

/// One Fig. 4 panel: (estimated, extracted) pairs with positive values,
/// and their log-binned means (the paper's red dots, non-empty bins).
struct Panel {
    model: &'static str,
    pairs: Vec<(f64, f64)>,
    means: Result<Vec<BinStat>, StatsError>,
}

impl Study {
    fn new(cfg: GeneratorConfig, sweep: bool) -> Self {
        Self {
            cfg,
            sweep,
            dataset: OnceCell::new(),
            grid: OnceCell::new(),
            dynamics: OnceCell::new(),
            populations: OnceCell::new(),
            mobility: OnceCell::new(),
        }
    }

    fn dataset(&self) -> &TweetDataset {
        self.dataset
            .get_or_init(|| TweetGenerator::new(self.cfg.clone()).generate())
    }

    fn experiment(&self) -> Experiment<'_> {
        Experiment::new(self.dataset())
    }

    /// Prints the run header (dataset provenance) every artifact on the
    /// standard dataset starts with.
    fn header(&self, title: &str) -> &TweetDataset {
        let ds = self.dataset();
        println!("================================================================");
        println!("{title}");
        println!(
            "synthetic dataset: {} users, {} tweets (seed 0x{:X})",
            ds.n_users(),
            ds.n_tweets(),
            self.cfg.seed
        );
        println!("================================================================");
        ds
    }

    /// Fig. 1: tweet counts on a 0.2° raster over Australia.
    fn grid(&self) -> &DensityGrid {
        self.grid.get_or_init(|| {
            let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.2);
            grid.extend(self.dataset().iter_points());
            grid
        })
    }

    /// Fig. 2: (a) tweets per user, (b) positive waiting times in seconds.
    fn dynamics(&self) -> &[Pdf; 2] {
        self.dynamics.get_or_init(|| {
            let ds = self.dataset();
            let counts = ds.tweets_per_user().iter().map(|&c| c as f64).collect();
            let waits = ds.waiting_times_secs();
            let waits = waits.iter().map(|&s| s as f64).filter(|&s| s > 0.0);
            [Pdf::new(counts, 4), Pdf::new(waits.collect(), 2)]
        })
    }

    /// Fig. 3: the rescaled populations, one per [`Scale::ALL`] entry.
    fn populations(&self) -> &[Result<PopulationCorrelation, ExperimentError>] {
        self.populations.get_or_init(|| {
            let exp = self.experiment();
            Scale::ALL.map(|s| exp.population_correlation(s)).into()
        })
    }

    /// Fig. 4 and Table II: the fits, one per [`Scale::ALL`] entry.
    fn mobility(&self) -> &[Result<Mobility, ExperimentError>] {
        self.mobility.get_or_init(|| {
            let exp = self.experiment();
            Scale::ALL
                .map(|s| exp.mobility(s).map(Mobility::new))
                .into()
        })
    }
}

impl Pdf {
    fn new(samples: Vec<f64>, bins_per_decade: usize) -> Self {
        let bins = LogBins::covering(&samples, bins_per_decade).map(|bins| {
            bins.pdf(&samples)
                .into_iter()
                .filter(|b| b.count > 0)
                .collect()
        });
        Self { samples, bins }
    }
}

impl Mobility {
    fn new(report: MobilityReport) -> Self {
        let obs = &report.observations;
        let panels = [
            Panel::new("Gravity 4Param", &report.gravity4, obs),
            Panel::new("Gravity 2Param", &report.gravity2, obs),
            Panel::new("Radiation", &report.radiation, obs),
        ];
        Self { report, panels }
    }
}

impl Panel {
    fn new(model: &'static str, fit: &dyn FittedModel, observations: &[FlowObservation]) -> Self {
        let mut pairs = Vec::new();
        for o in observations {
            if o.observed_flow > 0.0 {
                let p = fit.predict_flow(o);
                if p > 0.0 && p.is_finite() {
                    pairs.push((p, o.observed_flow));
                }
            }
        }
        let (est, obs): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let means = LogBins::covering(&est, 2)
            .and_then(|bins| bins.binned_mean(&est, &obs))
            .map(|stats| stats.into_iter().filter(|b| b.count > 0).collect());
        Self {
            model,
            pairs,
            means,
        }
    }
}
