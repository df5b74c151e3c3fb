//! Experiment E14 — trip-displacement profile.
//!
//! The jump-length distribution P(Δr) of consecutive same-user tweets is
//! the mobility literature's standard first diagnostic (the paper's
//! ref.\[9\], Hawelka et al. 2014, reports a truncated power law for
//! global tweets). This binary prints the log-binned PDF, its tail exponent,
//! and the mass per distance regime.

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::displacement_profile;

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header("E14 — consecutive-tweet displacement profile", &cfg, &ds);

    match displacement_profile(&ds) {
        Ok(profile) => {
            println!(
                "{} jumps, median {:.2} km",
                profile.n_jumps, profile.median_km
            );
            println!();
            println!("{:>14} {:>14} {:>10}", "Δr (km)", "density", "count");
            for b in profile.pdf.iter().filter(|b| b.count > 0) {
                println!("{:>14.3e} {:>14.3e} {:>10}", b.center, b.density, b.count);
            }
            println!();
            if let Some(tail) = profile.tail {
                println!(
                    "tail: alpha = {:.2} above {:.1} km (n = {}, KS = {:.3})",
                    tail.alpha, tail.xmin, tail.n_tail, tail.ks_distance
                );
            }
            println!("mass per regime:");
            println!(
                "  local (<5 km)            {:.1} %",
                profile.shares.local * 100.0
            );
            println!(
                "  metropolitan (5–100)     {:.1} %",
                profile.shares.metropolitan * 100.0
            );
            println!(
                "  inter-city (100–1000)    {:.1} %",
                profile.shares.intercity * 100.0
            );
            println!(
                "  continental (≥1000)      {:.1} %",
                profile.shares.continental * 100.0
            );
            println!();
            println!("expected shape: heavy tail across four decades with most mass");
            println!("local — the multi-scale structure the paper's three study scales");
            println!("slice through.");
        }
        Err(e) => println!("unavailable: {e}"),
    }
}
