//! Extended model-family comparison (DESIGN.md §6 + paper future work).
//!
//! Adds to the paper's three models: intervening opportunities,
//! exponential-deterrence gravity, the Tanner combination, and
//! doubly-constrained gravity (IPF). Prints one table per scale.

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::{deterrence_ablation, Experiment, Scale};

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("extended model ablation (7 models × 3 scales)", &cfg, &ds);
    let exp = Experiment::new(&ds);

    for scale in Scale::ALL {
        let report = match exp.mobility(scale) {
            Ok(r) => r,
            Err(e) => {
                println!("{}: {e}", scale.name());
                continue;
            }
        };
        println!("=== {} ({} trips) ===", scale.name(), report.od_total);
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "model", "Pearson", "hit@50%", "logRMSE", "rank-ρ", "SSI"
        );
        let mut rows: Vec<&tweetmob_models::ModelEvaluation> = report.evaluations.iter().collect();
        let ablation = deterrence_ablation(&report);
        rows.extend(ablation.evaluations());
        for e in rows {
            println!(
                "{:<16} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                e.model, e.pearson, e.hit_rate_50, e.log_rmse, e.spearman, e.sorensen
            );
        }
        if let Ok((tanner, _)) = &ablation.tanner {
            println!(
                "deterrence read-out: γ = {:.2}, 1/κ = {:+.2e}/km (κ ≈ {:.0} km)",
                tanner.gamma,
                tanner.inv_kappa,
                1.0 / tanner.inv_kappa.abs().max(1e-12)
            );
        }
        if let Ok((iters, _)) = &ablation.ipf {
            println!("IPF converged in {iters} sweeps");
        }
        println!();
    }
    println!("expected shape: the gravity family tops every scale; IPF wins the");
    println!("Sørensen index by construction (matched marginals); Radiation trails.");
}
