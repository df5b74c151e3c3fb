//! Regenerates **Figure 4** — estimated vs extracted mobility, three
//! models × three scales.
//!
//! For each scale and model the paper scatters (estimated, extracted)
//! pairs in log-log space with log-binned means (red dots) over the
//! `y = x` diagonal. This binary prints the binned-mean series plus the
//! dispersion summary ("estimation error is roughly bounded by one
//! decade" for National Gravity 2Param, "almost two decades" for
//! Radiation, …).

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::{Experiment, Scale};
use tweetmob_models::{FittedModel, FlowObservation};
use tweetmob_stats::binning::LogBins;

/// A boxed flow predictor (one per Fig. 4 panel).
type Predictor = Box<dyn Fn(&FlowObservation) -> f64>;

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("FIGURE 4 — mobility estimation scatters", &cfg, &ds);
    let exp = Experiment::new(&ds);

    for scale in Scale::ALL {
        let report = match exp.mobility(scale) {
            Ok(r) => r,
            Err(e) => {
                println!("{}: {e}", scale.name());
                continue;
            }
        };
        println!(
            "=== {} ({} trips, {} nonzero pairs) ===",
            scale.name(),
            report.od_total,
            report.nonzero_pairs
        );
        let models: Vec<(&str, Predictor)> = vec![
            ("Gravity 4Param", {
                let m = report.gravity4;
                Box::new(move |o: &FlowObservation| m.predict_flow(o))
            }),
            ("Gravity 2Param", {
                let m = report.gravity2;
                Box::new(move |o: &FlowObservation| m.predict_flow(o))
            }),
            ("Radiation", {
                let m = report.radiation;
                Box::new(move |o: &FlowObservation| m.predict_flow(o))
            }),
        ];
        for (name, predict) in &models {
            print_panel(name, &report.observations, predict);
        }
        println!();
    }
    println!("paper shape: grey clouds hug y = x for the Gravity panels at every");
    println!("scale; Radiation scatters across 2–3 decades (under-estimating at");
    println!("National, over-estimating at State, under-estimating small flows at");
    println!("Metropolitan).");
}

/// One scatter panel: log-binned mean of extracted traffic vs estimated
/// traffic (the red dots), with the max deviation from y = x in decades.
fn print_panel(
    name: &str,
    observations: &[FlowObservation],
    predict: &dyn Fn(&FlowObservation) -> f64,
) {
    let mut est = Vec::new();
    let mut obs = Vec::new();
    for o in observations {
        if o.observed_flow > 0.0 {
            let p = predict(o);
            if p > 0.0 && p.is_finite() {
                est.push(p);
                obs.push(o.observed_flow);
            }
        }
    }
    println!("--- {name} ---");
    if est.len() < 3 {
        println!("  too few pairs ({})", est.len());
        return;
    }
    match LogBins::covering(&est, 2) {
        Ok(bins) => {
            println!(
                "  {:>14} {:>16} {:>8}   (red-dot series: x = estimated, y = mean extracted)",
                "estimated", "mean extracted", "pairs"
            );
            match bins.binned_mean(&est, &obs) {
                Ok(stats) => {
                    for b in stats.iter().filter(|b| b.count > 0) {
                        println!("  {:>14.3e} {:>16.3e} {:>8}", b.center, b.mean_y, b.count);
                    }
                }
                Err(e) => println!("  binned means unavailable: {e}"),
            }
        }
        Err(e) => println!("  binning unavailable: {e}"),
    }
    // Max deviation in decades (the paper's "error bounded by a decade").
    let max_dev = est
        .iter()
        .zip(&obs)
        .map(|(&e, &o)| (e.log10() - o.log10()).abs())
        .fold(0.0f64, f64::max);
    let mean_dev = est
        .iter()
        .zip(&obs)
        .map(|(&e, &o)| (e.log10() - o.log10()).abs())
        .sum::<f64>()
        / est.len() as f64;
    println!("  deviation from y = x: mean {mean_dev:.2} decades, max {max_dev:.2} decades");
}
