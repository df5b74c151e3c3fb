//! Primitive samplers used by the generator.
//!
//! The handful of distributions the generator needs — normal
//! (Box–Muller), log-normal, exponential, truncated Pareto and a
//! geographic scatter kernel — are implemented here over the uniform
//! draws of the workspace's [`SplitMix64`].

use tweetmob_geo::{destination, Point};
use tweetmob_stats::rng::SplitMix64;

/// Standard normal variate via Box–Muller (one value per call; the twin
/// is discarded for simplicity — generation is not the hot path).
pub(crate) fn sample_normal(rng: &mut SplitMix64) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1 = rng.next_f64().max(1e-300);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Log-normal variate with the given log-space mean and deviation.
pub(crate) fn sample_lognormal(rng: &mut SplitMix64, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * sample_normal(rng)).exp()
}

/// A log-normal variate whose *expected value is one*:
/// `LogNormal(−σ²/2, σ)`. The generator uses these as multiplicative
/// heavy-tailed factors that must not shift means.
pub(crate) fn sample_mean_one_lognormal(rng: &mut SplitMix64, sigma: f64) -> f64 {
    sample_lognormal(rng, -sigma * sigma / 2.0, sigma)
}

/// Exponential variate with the given mean.
pub(crate) fn sample_exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    let u = rng.next_f64().max(1e-300);
    -mean * u.ln()
}

/// Continuous Pareto variate with lower bound `xmin` and exponent
/// `alpha > 1` (density ∝ x^(−alpha) for x ≥ xmin).
pub(crate) fn sample_pareto(rng: &mut SplitMix64, xmin: f64, alpha: f64) -> f64 {
    let u = rng.next_f64();
    xmin * (1.0 - u).max(1e-300).powf(-1.0 / (alpha - 1.0))
}

/// Scale (tweets) of the exponential cutoff on the activity power law.
/// Without it the pure power law puts 4× the paper's share of users over
/// 1,000 tweets, and at the default 20,000 users a single 20,000-tweet
/// enthusiast in a country town outweighs a capital city on the Fig. 1
/// density map.
const ACTIVITY_CUTOFF: f64 = 350.0;

/// Tweets-per-user sample: `floor(min(Pareto(1, alpha), 1 + Exp(350)))`
/// clamped to `[1, cap]` — a power law whose survival function
/// `x^(1 − alpha) · e^(−(x − 1)/350)` bends down past a few hundred
/// tweets. With `alpha = 1.73` the mean lands near the paper's 13.3.
pub(crate) fn sample_tweet_count(rng: &mut SplitMix64, alpha: f64, cap: u32) -> u32 {
    let x = sample_pareto(rng, 1.0, alpha).min(1.0 + sample_exponential(rng, ACTIVITY_CUTOFF));
    (x as u64).clamp(1, cap as u64) as u32
}

/// Scatters a point around `center`: exponentially distributed distance
/// with mean `radius_km` (capped at 4× to keep settlements compact) and a
/// uniform bearing.
pub(crate) fn scatter_point(rng: &mut SplitMix64, center: Point, radius_km: f64) -> Point {
    let dist = sample_exponential(rng, radius_km).min(radius_km * 4.0);
    let bearing = rng.range_f64(0.0, 360.0);
    destination(center, bearing, dist)
}

/// Uniform point inside a bounding box (area-uniform in coordinate space,
/// which is fine for noise injection).
pub(crate) fn uniform_in_bbox(rng: &mut SplitMix64, bbox: &tweetmob_geo::BoundingBox) -> Point {
    Point::new_unchecked(
        rng.range_f64(bbox.min_lat, bbox.max_lat),
        rng.range_f64(bbox.min_lon, bbox.max_lon),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_geo::{haversine_km, AUSTRALIA_BBOX};

    fn rng(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(1);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn mean_one_lognormal_really_has_mean_one() {
        let mut r = rng(2);
        let n = 300_000;
        for sigma in [0.3, 1.0, 1.5] {
            let mean: f64 = (0..n)
                .map(|_| sample_mean_one_lognormal(&mut r, sigma))
                .sum::<f64>()
                / n as f64;
            assert!((mean - 1.0).abs() < 0.1, "sigma {sigma}: mean {mean}");
        }
    }

    #[test]
    fn exponential_mean_matches() {
        let mut r = rng(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| sample_exponential(&mut r, 7.0)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn pareto_respects_xmin_and_tail() {
        let mut r = rng(4);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| sample_pareto(&mut r, 2.0, 2.5))
            .collect();
        assert!(xs.iter().all(|&x| x >= 2.0));
        // Analytic: P(X > 2·2^(1/1.5)) = 0.5 → median = 2·2^(2/3).
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let theory = 2.0 * 2.0f64.powf(1.0 / 1.5);
        assert!((median - theory).abs() / theory < 0.03, "median {median}");
    }

    #[test]
    fn tweet_count_calibrated_to_paper_mean() {
        // Table I: 13.3 tweets per user on average; §II: 180 of 473,956
        // users (0.038 %) tweet over 1,000 times.
        let mut r = rng(5);
        let n = 400_000;
        let counts: Vec<u32> = (0..n)
            .map(|_| sample_tweet_count(&mut r, 1.73, 20_000))
            .collect();
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n as f64;
        assert!((11.0..16.0).contains(&mean), "mean tweets/user {mean}");
        assert!(counts.iter().all(|&c| (1..=20_000).contains(&c)));
        let over_1000 = counts.iter().filter(|&&c| c > 1_000).count() as f64 / n as f64;
        assert!(
            (0.0002..0.001).contains(&over_1000),
            "share over 1,000: {over_1000}"
        );
    }

    #[test]
    fn tweet_count_respects_cap() {
        let mut r = rng(6);
        for _ in 0..20_000 {
            assert!(sample_tweet_count(&mut r, 1.2, 50) <= 50);
        }
    }

    #[test]
    fn scatter_distance_distribution() {
        let mut r = rng(7);
        let c = Point::new_unchecked(-33.8688, 151.2093);
        let n = 20_000;
        let dists: Vec<f64> = (0..n)
            .map(|_| haversine_km(c, scatter_point(&mut r, c, 5.0)))
            .collect();
        let mean = dists.iter().sum::<f64>() / n as f64;
        // Exponential(5) truncated at 20 has mean slightly below 5.
        assert!((4.0..5.5).contains(&mean), "mean scatter {mean}");
        assert!(dists.iter().all(|&d| d <= 20.0 + 1e-9));
    }

    #[test]
    fn uniform_bbox_points_inside() {
        let mut r = rng(8);
        for _ in 0..2_000 {
            let p = uniform_in_bbox(&mut r, &AUSTRALIA_BBOX);
            assert!(AUSTRALIA_BBOX.contains(p));
        }
    }

    #[test]
    fn samplers_deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut r = rng(42);
            (0..10).map(|_| sample_pareto(&mut r, 1.0, 2.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(42);
            (0..10).map(|_| sample_pareto(&mut r, 1.0, 2.0)).collect()
        };
        assert_eq!(a, b);
    }
}
