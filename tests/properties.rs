//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, not just the synthetic presets. Each test runs a seeded loop
//! of cases drawn from `SplitMix64`; a failure names its seed.

use tweetmob::core::AreaSet;
use tweetmob::data::{Timestamp, Tweet, TweetDataset, UserId};
use tweetmob::geo::{destination, haversine_km, BoundingBox, Point};
use tweetmob::models::{FittedModel, FlowObservation, Gravity2Fit};
use tweetmob::stats::correlation::pearson;
use tweetmob::stats::descriptive::{mean, quantile};
use tweetmob::stats::metrics::{hit_rate, sorensen_index};
use tweetmob::stats::rng::SplitMix64;

const CASES: u64 = 64;

fn point(rng: &mut SplitMix64) -> Point {
    Point::new_unchecked(rng.range_f64(-85.0, 85.0), rng.range_f64(-179.0, 179.0))
}

fn aus_point(rng: &mut SplitMix64) -> Point {
    Point::new_unchecked(rng.range_f64(-44.0, -10.0), rng.range_f64(113.0, 154.0))
}

/// `lo + [0, hi - lo)` draws of `item`.
fn vec_of<T>(
    rng: &mut SplitMix64,
    lo: usize,
    hi: usize,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = lo + rng.next_below(hi - lo);
    (0..n).map(|_| item(rng)).collect()
}

#[test]
fn haversine_is_a_metric() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let (a, b, c) = (point(&mut rng), point(&mut rng), point(&mut rng));
        let ab = haversine_km(a, b);
        let ba = haversine_km(b, a);
        assert!((ab - ba).abs() < 1e-9, "seed {seed}: symmetry");
        assert!(ab >= 0.0, "seed {seed}: non-negativity");
        // Triangle inequality (with float slack).
        let ac = haversine_km(a, c);
        let cb = haversine_km(c, b);
        assert!(ab <= ac + cb + 1e-6, "seed {seed}: triangle inequality");
    }
}

#[test]
fn destination_inverts_distance() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let p = point(&mut rng);
        let bearing = rng.range_f64(0.0, 360.0);
        let dist = rng.range_f64(0.0, 5_000.0);
        let q = destination(p, bearing, dist);
        let measured = haversine_km(p, q);
        assert!(
            (measured - dist).abs() < 1e-6 * dist.max(1.0),
            "seed {seed}: wanted {dist}, measured {measured}"
        );
    }
}

#[test]
fn area_coverage_matches_brute_force() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let areas = vec_of(&mut rng, 1, 21, |rng| tweetmob::synth::Area {
            name: "area",
            center: aus_point(rng),
            population: 1,
        });
        let pts = vec_of(&mut rng, 1, 200, aus_point);
        let radius = rng.range_f64(0.01, 2_000.0);
        let set = AreaSet::new(areas.clone(), radius);
        let lats: Vec<f64> = pts.iter().map(|p| p.lat).collect();
        let lons: Vec<f64> = pts.iter().map(|p| p.lon).collect();
        let mut got = Vec::new();
        set.assign_batch(&lats, &lons, &mut Vec::new(), |k, a| got.push((k, a)));
        let mut want = Vec::new();
        for (k, &p) in pts.iter().enumerate() {
            for (a, area) in areas.iter().enumerate() {
                if haversine_km(area.center, p) <= radius {
                    want.push((k, a));
                }
            }
        }
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn bounding_box_covering_contains_all() {
    for seed in 0..CASES {
        let pts = vec_of(&mut SplitMix64::new(seed), 1, 100, point);
        let bbox = BoundingBox::covering(pts.iter().copied()).unwrap();
        for p in &pts {
            assert!(bbox.contains(*p), "seed {seed}: {p}");
        }
    }
}

#[test]
fn dataset_is_sorted_and_complete() {
    for seed in 0..CASES {
        let tweets = vec_of(&mut SplitMix64::new(seed), 0, 300, |rng| {
            Tweet::new(
                UserId(rng.next_below(20) as u32),
                Timestamp::from_secs(rng.next_below(10_000) as i64),
                Point::new_unchecked(rng.range_f64(-40.0, -20.0), rng.range_f64(120.0, 150.0)),
            )
        });
        let ds = TweetDataset::from_tweets(tweets.clone());
        assert_eq!(ds.n_tweets(), tweets.len(), "seed {seed}");
        // Rows sorted by (user, time).
        let mut prev: Option<(UserId, Timestamp)> = None;
        for t in ds.iter_tweets() {
            if let Some((pu, pt)) = prev {
                assert!((t.user, t.time) >= (pu, pt), "seed {seed}");
            }
            prev = Some((t.user, t.time));
        }
        // Per-user views partition the rows.
        let total: usize = ds.iter_users().map(|v| v.len()).sum();
        assert_eq!(total, tweets.len(), "seed {seed}");
    }
}

#[test]
fn pearson_bounded_and_affine_invariant() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let pairs = vec_of(&mut rng, 3, 100, |rng| {
            (rng.range_f64(-1e6, 1e6), rng.range_f64(-1e6, 1e6))
        });
        let scale = rng.range_f64(0.001, 1000.0);
        let offset = rng.range_f64(-1e5, 1e5);
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let y: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Ok(c) = pearson(&x, &y) {
            assert!((-1.0..=1.0).contains(&c.r), "seed {seed}: r {}", c.r);
            if c.p_two_tailed.is_finite() {
                assert!((0.0..=1.0).contains(&c.p_two_tailed), "seed {seed}");
            }
            let x2: Vec<f64> = x.iter().map(|v| v * scale + offset).collect();
            if let Ok(c2) = pearson(&x2, &y) {
                assert!(
                    (c.r - c2.r).abs() < 1e-6,
                    "seed {seed}: r {} vs {}",
                    c.r,
                    c2.r
                );
            }
        }
    }
}

#[test]
fn quantile_within_sample_range() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let xs = vec_of(&mut rng, 1, 200, |rng| rng.range_f64(-1e9, 1e9));
        let q = rng.next_f64();
        let v = quantile(&xs, q).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo && v <= hi, "seed {seed}");
        // Monotone in q.
        let v2 = quantile(&xs, (q + 0.1).min(1.0)).unwrap();
        assert!(v2 >= v - 1e-9, "seed {seed}");
    }
}

#[test]
fn mean_between_min_and_max() {
    for seed in 0..CASES {
        let xs = vec_of(&mut SplitMix64::new(seed), 1, 200, |rng| {
            rng.range_f64(-1e9, 1e9)
        });
        let m = mean(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(m >= lo - 1e-6 && m <= hi + 1e-6, "seed {seed}");
    }
}

#[test]
fn hit_rate_and_sorensen_bounded() {
    for seed in 0..CASES {
        let pairs = vec_of(&mut SplitMix64::new(seed), 1, 100, |rng| {
            (rng.range_f64(0.1, 1e6), rng.range_f64(0.1, 1e6))
        });
        let est: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let obs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let hr = hit_rate(&est, &obs, 0.5).unwrap();
        assert!((0.0..=1.0).contains(&hr), "seed {seed}");
        let ssi = sorensen_index(&est, &obs).unwrap();
        assert!((0.0..=1.0).contains(&ssi), "seed {seed}");
        // Perfect estimates are perfect under both metrics.
        assert_eq!(hit_rate(&obs, &obs, 0.5).unwrap(), 1.0, "seed {seed}");
        assert!(
            (sorensen_index(&obs, &obs).unwrap() - 1.0).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

#[test]
fn gravity2_fit_recovers_generating_law() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let c = rng.range_f64(0.001, 10.0);
        let gamma = rng.range_f64(0.2, 3.0);
        let obs = vec_of(&mut rng, 10, 60, |rng| {
            let (m, n) = (rng.range_f64(1e3, 1e6), rng.range_f64(1e3, 1e6));
            let d = rng.range_f64(5.0, 3_000.0);
            FlowObservation {
                origin_population: m,
                dest_population: n,
                distance_km: d,
                intervening_population: 0.0,
                observed_flow: c * m * n / d.powf(gamma),
            }
        });
        if let Ok(fit) = Gravity2Fit::fit(&obs) {
            assert!(
                (fit.gamma - gamma).abs() < 1e-6,
                "seed {seed}: gamma {} vs {gamma}",
                fit.gamma
            );
            for o in &obs {
                let rel = (fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow;
                assert!(rel < 1e-6, "seed {seed}");
            }
        }
    }
}
