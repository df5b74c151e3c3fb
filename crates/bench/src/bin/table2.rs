//! Regenerates **Table II** — model performance per scale: Pearson
//! correlation (upper number) and HitRate@50% (lower number).
//!
//! Paper values (Gravity 4Param / Gravity 2Param / Radiation):
//!
//! ```text
//! National      0.877/0.330   0.912/0.397   0.840/0.184
//! State         0.893/0.487   0.896/0.397   0.742/0.166
//! Metropolitan  0.948/0.530   0.963/0.600   0.918/0.397
//! ```
//!
//! Expected reproduction *shape*: Gravity (either variant) beats
//! Radiation at every scale on Pearson, and on HitRate in aggregate;
//! Gravity 2Param is the best or near-best model overall.

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::Experiment;

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("TABLE II — model performance", &cfg, &ds);
    let exp = Experiment::new(&ds);

    let table = match exp.scale_comparison() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    };

    let model_names = [
        "Gravity 4Param",
        "Gravity 2Param",
        "Radiation",
        "Opportunities",
    ];
    print!("{:<14}", "");
    for m in model_names {
        print!("{m:>16}");
    }
    println!();
    for row in &table {
        print!("{:<14}", row.scale);
        for m in model_names {
            match row.report.evaluation(m) {
                Some(e) => print!("{:>16.3}", e.pearson),
                None => print!("{:>16}", "-"),
            }
        }
        println!("  (Pearson, log)");
        print!("{:<14}", "");
        for m in model_names {
            match row.report.evaluation(m) {
                Some(e) => print!("{:>16.3}", e.hit_rate_50),
                None => print!("{:>16}", "-"),
            }
        }
        println!("  (HitRate@50%)");
    }
    println!();
    println!("extended metrics (paper future work — logRMSE / Spearman / SSI):");
    for row in &table {
        println!("--- {} ---", row.scale);
        for e in &row.report.evaluations {
            println!("  {e}");
        }
    }
    println!();
    println!("fitted parameters:");
    for row in &table {
        let r = &row.report;
        println!(
            "  {:<14} G4: α={:.2} β={:.2} γ={:.2} | G2: γ={:.2} | trips={}",
            row.scale,
            r.gravity4.alpha,
            r.gravity4.beta,
            r.gravity4.gamma,
            r.gravity2.gamma,
            r.od_total
        );
    }
}
