//! The ground-truth mobility kernel trips are generated from.
//!
//! Destination choice follows a two-regime gravity law over the world's
//! places, reflecting the multi-scale structure of real travel:
//!
//! * **local** moves (destination < `FAR_THRESHOLD_KM` from the origin) —
//!   commutes and errands;
//! * **far** moves (≥ threshold) — inter-city trips, sampled with
//!   the kernel's `far_probability` per move.
//!
//! Within each regime the destination weight is
//! `pop_b^dest_exp / d_ab^γ · ε_ab`, where `ε_ab` is a **frozen**
//! log-normal pair noise: fixed per (origin, destination) for the whole
//! run, so it does not average out with more trips. That frozen noise is
//! what keeps the fitted models' Table II scores below 1.0, like the
//! paper's — real flows deviate persistently from any smooth law.
//!
//! Radiation is *not* used anywhere in generation; its Table II misfit
//! arises from the real embedded geography (coastal, discontinuous
//! population), which is exactly the paper's explanation for why
//! Radiation underperforms in Australia.

use crate::gazetteer::Place;
use tweetmob_geo::TrigPoint;
use tweetmob_stats::rng::SplitMix64;

/// Moves at or beyond this distance use the far (inter-city) regime.
pub(crate) const FAR_THRESHOLD_KM: f64 = 100.0;

/// Precomputed destination-choice tables over the world's places.
#[derive(Debug, Clone)]
pub(crate) struct MobilityKernel {
    n: usize,
    /// Per-origin cumulative weights over *local* destinations.
    local_cdf: Vec<Vec<f64>>,
    /// Per-origin cumulative weights over *far* destinations.
    far_cdf: Vec<Vec<f64>>,
    /// Probability a move uses the far regime.
    far_probability: f64,
}

impl MobilityKernel {
    /// Builds the kernel.
    ///
    /// * `gamma` — distance-decay exponent of the ground-truth law;
    /// * `dest_exp` — destination-population exponent;
    /// * `pair_noise_sigma` — σ of the frozen log-normal pair noise;
    /// * `far_probability` — share of moves routed to the far regime;
    /// * `seed` — seeds the frozen pair noise (not the per-trip RNG).
    pub(crate) fn build(
        places: &[Place],
        gamma: f64,
        dest_exp: f64,
        pair_noise_sigma: f64,
        far_probability: f64,
        seed: u64,
    ) -> Self {
        let n = places.len();
        // Hoist the per-place trigonometry once; the pair loop then runs
        // the cheap TrigPoint kernel (bit-identical to haversine_km).
        let trig: Vec<TrigPoint> = places
            .iter()
            .map(|p| TrigPoint::new(p.area.center))
            .collect();
        let mut distances = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = trig[i].distance_km(&trig[j]);
                distances[i * n + j] = d;
                distances[j * n + i] = d;
            }
        }
        let mut local_cdf = Vec::with_capacity(n);
        let mut far_cdf = Vec::with_capacity(n);
        for i in 0..n {
            let mut local = Vec::with_capacity(n);
            let mut far = Vec::with_capacity(n);
            let mut local_acc = 0.0;
            let mut far_acc = 0.0;
            for j in 0..n {
                let mut w = 0.0;
                if i != j {
                    let d = distances[i * n + j].max(1.0);
                    let noise = frozen_pair_noise(seed, i, j, pair_noise_sigma);
                    w = (places[j].area.population as f64).powf(dest_exp) / d.powf(gamma) * noise;
                }
                if i != j && distances[i * n + j] < FAR_THRESHOLD_KM {
                    local_acc += w;
                } else if i != j {
                    far_acc += w;
                }
                local.push(local_acc);
                far.push(far_acc);
            }
            local_cdf.push(local);
            far_cdf.push(far);
        }
        Self {
            n,
            local_cdf,
            far_cdf,
            far_probability,
        }
    }

    /// Samples a destination for a move from `origin`. Chooses the far
    /// regime with probability `far_probability`; returns `None` when the
    /// chosen regime has no positive-weight destination, and the move
    /// then stays inside the origin. An isolated city (Perth, Darwin)
    /// thus keeps its local moves at home instead of sending every move
    /// to its nearest far neighbour — a fallback that made Bunbury,
    /// Perth's nearest town beyond the threshold, one of the densest
    /// cells on the Fig. 1 map.
    ///
    /// # Panics
    ///
    /// If `origin` is out of range.
    pub(crate) fn sample_destination(&self, rng: &mut SplitMix64, origin: usize) -> Option<usize> {
        assert!(origin < self.n, "origin out of range");
        let want_far = rng.next_f64() < self.far_probability;
        let cdf = if want_far {
            &self.far_cdf[origin]
        } else {
            &self.local_cdf[origin]
        };
        self.sample_from_cdf(rng, cdf)
    }

    fn sample_from_cdf(&self, rng: &mut SplitMix64, cdf: &[f64]) -> Option<usize> {
        let total = *cdf.last()?;
        if total <= 0.0 {
            return None;
        }
        let target = rng.next_f64() * total;
        // First index with cdf > target.
        let idx = cdf.partition_point(|&c| c <= target);
        Some(idx.min(self.n - 1))
    }

    /// The ground-truth (pre-normalisation) weight of a directed pair, or
    /// 0.0 for self-pairs.
    #[cfg(test)]
    fn ground_truth_weight(&self, origin: usize, dest: usize) -> f64 {
        if origin == dest {
            return 0.0;
        }
        let row_local = &self.local_cdf[origin];
        let row_far = &self.far_cdf[origin];
        let before_local = if dest == 0 { 0.0 } else { row_local[dest - 1] };
        let before_far = if dest == 0 { 0.0 } else { row_far[dest - 1] };
        (row_local[dest] - before_local) + (row_far[dest] - before_far)
    }
}

/// Frozen per-pair log-normal factor with mean 1, derived from a hash of
/// `(seed, origin, dest)` so it is stable across the whole run and across
/// threads. The pair noise is intentionally asymmetric (`ε_ab ≠ ε_ba`):
/// real OD matrices are not symmetric either.
fn frozen_pair_noise(seed: u64, i: usize, j: usize, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let mut h = SplitMix64::new(seed ^ ((i as u64) << 32) ^ j as u64);
    // Box–Muller on two SplitMix64 uniforms.
    let u1 = h.next_f64().max(1e-300);
    let u2 = h.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (-sigma * sigma / 2.0 + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::world_places;

    fn kernel() -> MobilityKernel {
        MobilityKernel::build(&world_places(), 2.0, 1.0, 0.4, 0.25, 99)
    }

    #[test]
    fn never_samples_the_origin() {
        let k = kernel();
        let mut rng = SplitMix64::new(5);
        for origin in [0, 10, 40] {
            for _ in 0..500 {
                let d = k.sample_destination(&mut rng, origin).unwrap();
                assert_ne!(d, origin);
            }
        }
    }

    #[test]
    fn local_moves_dominate_and_favor_close_places() {
        let places = world_places();
        let k = kernel();
        // Origin: Parramatta (a Sydney suburb).
        let origin = places
            .iter()
            .position(|p| p.area.name == "Parramatta")
            .unwrap();
        let mut rng = SplitMix64::new(6);
        let n = 5_000;
        let mut local = 0;
        for _ in 0..n {
            let d = k.sample_destination(&mut rng, origin).unwrap();
            let km = tweetmob_geo::haversine_km(places[origin].area.center, places[d].area.center);
            if km < FAR_THRESHOLD_KM {
                local += 1;
            }
        }
        let local_frac = local as f64 / n as f64;
        // far_probability = 0.25 → about 75 % local.
        assert!(
            (0.65..0.85).contains(&local_frac),
            "local fraction {local_frac}"
        );
    }

    #[test]
    fn far_moves_follow_gravity_ordering() {
        // From Sydney, Melbourne (big, 713 km) must receive far more far-
        // regime trips than Perth (smaller, 3,290 km): weight ratio
        // (4.2M/713²)/(1.9M/3290²) ≈ 47 before pair noise.
        let places = world_places();
        let k = kernel();
        let origin = places
            .iter()
            .position(|p| p.area.name == "Marrickville") // inner Sydney
            .unwrap();
        let melbourne = places
            .iter()
            .position(|p| p.area.name == "Melbourne")
            .unwrap();
        let perth = places.iter().position(|p| p.area.name == "Perth").unwrap();
        let mut rng = SplitMix64::new(7);
        let (mut mel, mut per) = (0u32, 0u32);
        for _ in 0..40_000 {
            if let Some(d) = k.sample_destination(&mut rng, origin) {
                if d == melbourne {
                    mel += 1;
                } else if d == perth {
                    per += 1;
                }
            }
        }
        assert!(mel > per * 3, "melbourne {mel} vs perth {per}");
    }

    #[test]
    fn ground_truth_weight_matches_cdf_decomposition() {
        let k = kernel();
        // Sum of ground-truth weights over destinations equals the sum of
        // both regime totals.
        for origin in [0, 25, 60] {
            let total: f64 = (0..k.n).map(|j| k.ground_truth_weight(origin, j)).sum();
            let expect = k.local_cdf[origin].last().unwrap() + k.far_cdf[origin].last().unwrap();
            assert!((total - expect).abs() < 1e-9 * expect.max(1.0));
            assert_eq!(k.ground_truth_weight(origin, origin), 0.0);
        }
    }

    #[test]
    fn pair_noise_is_frozen_and_mean_one_ish() {
        let a = frozen_pair_noise(1, 3, 9, 0.5);
        let b = frozen_pair_noise(1, 3, 9, 0.5);
        assert_eq!(a, b);
        assert_ne!(
            frozen_pair_noise(1, 3, 9, 0.5),
            frozen_pair_noise(1, 9, 3, 0.5)
        );
        assert_ne!(frozen_pair_noise(2, 3, 9, 0.5), a);
        assert_eq!(frozen_pair_noise(1, 3, 9, 0.0), 1.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|i| frozen_pair_noise(7, i, i + 1, 0.5))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn deterministic_sampling_per_seed() {
        let k = kernel();
        let seq = |seed: u64| -> Vec<usize> {
            let mut rng = SplitMix64::new(seed);
            (0..50)
                .map(|_| k.sample_destination(&mut rng, 0).unwrap())
                .collect()
        };
        assert_eq!(seq(11), seq(11));
        assert_ne!(seq(11), seq(12));
    }

    #[test]
    fn two_place_world_works() {
        let places = world_places();
        let two = vec![places[0], places[30]];
        // The two places are over 100 km apart: a far-regime move (half
        // of them) reaches the other place, a local one finds no local
        // destination and stays.
        let k = MobilityKernel::build(&two, 2.0, 1.0, 0.0, 0.5, 0);
        let mut rng = SplitMix64::new(1);
        for origin in [0, 1] {
            let draws: Vec<Option<usize>> = (0..200)
                .map(|_| k.sample_destination(&mut rng, origin))
                .collect();
            assert!(draws.iter().flatten().all(|&d| d == 1 - origin));
            let moved = draws.iter().flatten().count();
            assert!(
                (60..140).contains(&moved),
                "origin {origin}: {moved} of 200 moved"
            );
        }
    }

    #[test]
    fn isolated_origin_keeps_local_moves_at_home() {
        // Perth has no other place within 100 km: only its far-regime
        // draws leave the city.
        let places = world_places();
        let k = kernel();
        let perth = places.iter().position(|p| p.area.name == "Perth").unwrap();
        let mut rng = SplitMix64::new(8);
        let n = 4_000;
        let moved = (0..n)
            .filter(|_| k.sample_destination(&mut rng, perth).is_some())
            .count();
        let frac = moved as f64 / n as f64;
        assert!(
            (0.22..0.28).contains(&frac),
            "Perth moved on {frac} of draws"
        );
    }

    #[test]
    fn single_place_world_returns_none() {
        let places = world_places();
        let one = vec![places[0]];
        let k = MobilityKernel::build(&one, 2.0, 1.0, 0.0, 0.5, 0);
        let mut rng = SplitMix64::new(1);
        assert_eq!(k.sample_destination(&mut rng, 0), None);
    }
}
