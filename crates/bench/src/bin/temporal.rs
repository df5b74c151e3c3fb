//! Experiment E12 — temporal responsiveness.
//!
//! The paper's pitch is that tweets are "generated continuously in large
//! volume … which provides timely and accessible information on human
//! mobility". This binary quantifies the claim the paper itself never
//! tests: how much collection time does the population estimate need?
//! It slices the 8-month window into months and repeats Fig. 3 inside
//! each.

use tweetmob_bench::{print_header, standard_dataset};
use tweetmob_core::{temporal_stability, waiting_time_stationarity, Scale};

fn main() {
    let (cfg, ds) = standard_dataset();
    print_header(
        "E12 — temporal responsiveness of population estimation",
        &cfg,
        &ds,
    );

    for scale in [Scale::National, Scale::Metropolitan] {
        println!("--- {} scale, 8 monthly windows ---", scale.name());
        match temporal_stability(&ds, scale, 8) {
            Ok(st) => {
                println!(
                    "{:>7} {:>10} {:>9} {:>12} {:>12}",
                    "window", "tweets", "users", "r(census)", "r(full)"
                );
                for (k, w) in st.windows.iter().enumerate() {
                    println!(
                        "{:>7} {:>10} {:>9} {:>12.3} {:>12.3}",
                        k + 1,
                        w.n_tweets,
                        w.n_users,
                        w.vs_census.r,
                        w.vs_full_period.r
                    );
                }
                println!(
                    "worst single-month census correlation: {:.3}",
                    st.worst_census_r()
                );
            }
            Err(e) => println!("unavailable: {e}"),
        }
        println!();
    }
    match waiting_time_stationarity(&ds) {
        Ok((ks, p)) => println!(
            "waiting-time stationarity (first vs second half, per-user capped): KS = {ks:.3}, p = {p:.3}"
        ),
        Err(e) => println!("stationarity test unavailable: {e}"),
    }
    println!();
    println!("reading: if every monthly r(census) is close to the full-period");
    println!("value, one month of tweets already suffices for a responsive");
    println!("population estimate — the feasibility the paper argues for.");
}
