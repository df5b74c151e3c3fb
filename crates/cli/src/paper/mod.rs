//! `tweetmob paper <artifact>`: regenerates the paper's tables and
//! figures from a synthetic corpus.
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
//! The corpus is `generate`'s: `--users N` (default 20,000; the paper's
//! own scale is 473,956) and `--seed N` (default the calibrated preset).

mod axes;
mod chart;
mod extensions;
mod figures;
mod heatmap;
mod svg;
mod text;

use crate::args::{ArgError, Args};
use crate::{stderr, Out, OutputError};
use std::cell::OnceCell;
use std::error::Error;
use std::fmt;
use tweetmob_core::{Experiment, ExperimentError, MobilityReport, PopulationCorrelation, Scale};
use tweetmob_data::TweetDataset;
use tweetmob_geo::{DensityGrid, AUSTRALIA_BBOX};
use tweetmob_models::{FittedModel, FlowObservation, ModelKind};
use tweetmob_stats::binning::{BinStat, LogBins};
use tweetmob_stats::StatsError;
use tweetmob_synth::TweetGenerator;

/// An artifact's outcome: an error fails the run.
type Outcome = Result<(), Box<dyn Error>>;

/// An artifact: prints to `out`, or (`figures`) writes files.
type Artifact = fn(&Study<'_>, &mut Out) -> Outcome;

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

/// `tweetmob paper <artifact> [--users N] [--seed N] [--sweep]`, where
/// `--sweep` (fig3 only) appends the metropolitan ε sweep.
pub(crate) fn paper(args: &Args, out: &mut Out) -> Outcome {
    let names = || ARTIFACTS.map(|(name, _)| name).join(" ");
    let name = args
        .positional(0)
        .ok_or_else(|| ArgError(format!("missing artifact, one of: {}", names())))?;
    let Some(&(_, run)) = ARTIFACTS.iter().find(|(n, _)| *n == name) else {
        return Err(ArgError(format!("unknown artifact {name:?}, one of: {}", names())).into());
    };
    let sweep = args.has("sweep");
    if sweep && name != "fig3" {
        return Err(ArgError(format!("--sweep applies to fig3 only, not {name}")).into());
    }
    let generator = crate::commands::generator(args)?;
    let dataset = generator.generate();
    run(&Study::new(generator, &dataset, sweep), out)
}

/// Runs the ten text artifacts in order on one study, each after a blank
/// line; a failed artifact does not stop the ones after it, but a failed
/// write to `out` ends the run.
fn all(study: &Study<'_>, out: &mut Out) -> Outcome {
    let mut failed = Vec::new();
    for &(name, run) in &ARTIFACTS[..10] {
        writeln!(out)?;
        if let Err(e) = run(study, out) {
            if e.is::<OutputError>() {
                return Err(e);
            }
            warn(out, format_args!("{name}: {e}\n"))?;
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(" ")).into())
    }
}

/// Writes a diagnostic to stderr after flushing `out`, so a terminal
/// shows it after the text printed before it.
fn warn(out: &mut Out, args: fmt::Arguments<'_>) -> Result<(), OutputError> {
    out.flush()?;
    stderr(args);
    Ok(())
}

/// The line above and below every artifact's title.
const RULE: &str = "================================================================";

/// The generated dataset's experiment and the series the artifacts
/// share. The experiment scans each area set once, on first use, and
/// each series is computed on first use, so `all` computes it once and
/// the text and SVG renderings read the same values.
struct Study<'a> {
    generator: TweetGenerator,
    /// fig3's `--sweep`: append the metropolitan ε sweep.
    sweep: bool,
    experiment: Experiment<'a>,
    grid: OnceCell<DensityGrid>,
    dynamics: OnceCell<[Pdf; 2]>,
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

impl<'a> Study<'a> {
    fn new(generator: TweetGenerator, dataset: &'a TweetDataset, sweep: bool) -> Self {
        Self {
            generator,
            sweep,
            experiment: Experiment::new(dataset),
            grid: OnceCell::new(),
            dynamics: OnceCell::new(),
            mobility: OnceCell::new(),
        }
    }

    /// Prints the run header (dataset provenance) every artifact on the
    /// standard dataset starts with.
    fn header(&self, out: &mut Out, title: &str) -> Result<&TweetDataset, OutputError> {
        let ds = self.experiment.dataset();
        writeln!(out, "{RULE}")?;
        writeln!(out, "{title}")?;
        writeln!(
            out,
            "synthetic dataset: {} users, {} tweets (seed 0x{:X})",
            ds.n_users(),
            ds.n_tweets(),
            self.generator.config().seed
        )?;
        writeln!(out, "{RULE}")?;
        Ok(ds)
    }

    /// Fig. 1: tweet counts on a 0.2° raster over Australia.
    fn grid(&self) -> &DensityGrid {
        self.grid.get_or_init(|| {
            let mut grid = DensityGrid::new(AUSTRALIA_BBOX, 0.2);
            grid.extend(self.experiment.dataset().iter_points());
            grid
        })
    }

    /// Fig. 2: (a) tweets per user, (b) positive waiting times in seconds.
    fn dynamics(&self) -> &[Pdf; 2] {
        self.dynamics.get_or_init(|| {
            let ds = self.experiment.dataset();
            let counts = ds.tweets_per_user().iter().map(|&c| c as f64).collect();
            let waits = ds.waiting_times_secs();
            let waits = waits.iter().map(|&s| s as f64).filter(|&s| s > 0.0);
            [Pdf::new(counts, 4), Pdf::new(waits.collect(), 2)]
        })
    }

    /// Fig. 3: the rescaled populations, one per [`Scale::ALL`] entry.
    fn populations(&self) -> [Result<PopulationCorrelation, ExperimentError>; 3] {
        Scale::ALL.map(|s| self.experiment.population_correlation(s))
    }

    /// Fig. 4 and Table II: the fits, one per [`Scale::ALL`] entry.
    fn mobility(&self) -> &[Result<Mobility, ExperimentError>] {
        self.mobility.get_or_init(|| {
            Scale::ALL
                .map(|s| self.experiment.mobility(s).map(Mobility::new))
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
            ModelKind::Gravity4,
            ModelKind::Gravity2,
            ModelKind::Radiation,
        ]
        .map(|kind| Panel::new(kind.name(), report.models.model(kind), obs));
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
