//! # tweetmob-bench
//!
//! Paper-regeneration binaries.
//!
//! One binary per paper artifact (run with
//! `cargo run --release -p tweetmob-bench --bin <name>`):
//!
//! | binary   | regenerates                                             |
//! |----------|---------------------------------------------------------|
//! | `table1` | Table I — dataset statistics                            |
//! | `fig1`   | Fig. 1 — tweet-density map of Australia                 |
//! | `fig2`   | Fig. 2 — tweets/user and waiting-time distributions     |
//! | `fig3`   | Fig. 3 — population correlation at three scales + ε sweep |
//! | `fig4`   | Fig. 4 — estimated-vs-extracted mobility scatters       |
//! | `table2` | Table II — Pearson + HitRate@50% per scale × model      |
//! | `all`    | everything above in sequence                            |
//!
//! Environment knobs (all optional):
//!
//! * `TWEETMOB_USERS` — synthetic user count (default 20,000; the paper's
//!   own scale is 473,956 — pass it for a full-scale run).
//! * `TWEETMOB_SEED` — generator seed (default the calibrated preset).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use tweetmob_data::TweetDataset;
use tweetmob_synth::{GeneratorConfig, TweetGenerator};

/// Builds the standard experiment dataset, honouring the
/// `TWEETMOB_USERS` / `TWEETMOB_SEED` environment knobs.
pub fn standard_dataset() -> (GeneratorConfig, TweetDataset) {
    let mut cfg = GeneratorConfig::default();
    if let Some(n) = env_u64("TWEETMOB_USERS") {
        cfg.n_users = n.clamp(1, u32::MAX as u64) as u32;
    }
    if let Some(seed) = env_u64("TWEETMOB_SEED") {
        cfg.seed = seed;
    }
    let ds = TweetGenerator::new(cfg.clone()).generate();
    (cfg, ds)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Prints the standard run header (dataset provenance) every regeneration
/// binary starts with.
pub fn print_header(title: &str, cfg: &GeneratorConfig, ds: &TweetDataset) {
    println!("================================================================");
    println!("{title}");
    println!(
        "synthetic dataset: {} users, {} tweets (seed 0x{:X})",
        ds.n_users(),
        ds.n_tweets(),
        cfg.seed
    );
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_dataset_is_deterministic() {
        // Only exercise the plumbing with a tiny run; the env override
        // path is covered by setting the vars inside this process.
        std::env::set_var("TWEETMOB_USERS", "300");
        std::env::set_var("TWEETMOB_SEED", "12345");
        let (cfg, ds) = standard_dataset();
        assert_eq!(cfg.n_users, 300);
        assert_eq!(cfg.seed, 12345);
        assert_eq!(ds.n_users(), 300);
        std::env::remove_var("TWEETMOB_USERS");
        std::env::remove_var("TWEETMOB_SEED");
    }
}
