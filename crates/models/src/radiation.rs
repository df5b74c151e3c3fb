//! The radiation model (paper Eq. 3) and the intervening-population term.
//!
//! Radiation (Simini et al., Nature 2012) is parameter-free up to a
//! scaling constant: `P = C · m n / ((m+s)(m+n+s))` where `s` is the
//! total population within a circle of radius `d` centred at the origin,
//! excluding the origin and destination themselves. The paper's headline
//! result is that this model *underperforms* gravity in Australia because
//! the population is coastal and discontinuous — `s` is frequently ~0
//! even for distant pairs, which radiation's smooth-dispersion assumption
//! does not anticipate.

use crate::fitted::FittedModel;
use crate::traits::{log_intercept, FlowObservation, ModelError};
use std::sync::Arc;
use tweetmob_geo::{PairGeometry, Point};
use tweetmob_obs::{Json, ToJson};
use tweetmob_stats::check::debug_assert_finite;

/// Efficient `s(i, j)` computation over a fixed set of areas.
///
/// Rides on a shared [`PairGeometry`] cache: the per-origin
/// distance-sorted rank lists come straight from the cache, and every
/// distance a query needs — including the destination distance in the
/// disc-count path — is a cached lookup, never a fresh haversine. A
/// population prefix sum in rank order makes each query a binary
/// search — O(n log n) build, O(log n) per pair instead of the naive
/// O(n) scan the tests compare it with.
#[derive(Debug, Clone)]
pub struct InterveningPopulation {
    geometry: Arc<PairGeometry>,
    populations: Vec<f64>,
    /// Per origin: prefix sums of populations in the geometry's rank
    /// order (`prefix[k]` = population of the k nearest other areas).
    prefix: Vec<Vec<f64>>,
}

impl InterveningPopulation {
    /// Builds the structure from area centres and populations, building
    /// a fresh [`PairGeometry`] with the batch kernel.
    ///
    /// # Panics
    ///
    /// If the slices differ in length.
    pub fn build(centers: &[Point], populations: &[f64]) -> Self {
        assert_eq!(
            centers.len(),
            populations.len(),
            "centers and populations must align"
        );
        Self::from_geometry(PairGeometry::shared(centers), populations)
    }

    /// Builds on an existing shared geometry cache, avoiding any
    /// distance recomputation.
    ///
    /// # Panics
    ///
    /// If `geometry.len() != populations.len()`.
    pub fn from_geometry(geometry: Arc<PairGeometry>, populations: &[f64]) -> Self {
        assert_eq!(
            geometry.len(),
            populations.len(),
            "centers and populations must align"
        );
        let n = geometry.len();
        let mut prefix = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = 0.0;
            let pre: Vec<f64> = geometry
                .ranked(i)
                .iter()
                .map(|&(_, j)| {
                    acc += populations[j];
                    acc
                })
                .collect();
            prefix.push(pre);
        }
        Self {
            geometry,
            populations: populations.to_vec(),
            prefix,
        }
    }

    /// The shared geometry cache this structure rides on.
    #[must_use]
    pub fn geometry(&self) -> &Arc<PairGeometry> {
        &self.geometry
    }

    /// The populations `s` sums over, one per area.
    #[must_use]
    pub fn populations(&self) -> &[f64] {
        &self.populations
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.populations.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.populations.is_empty()
    }

    /// `s(origin, dest)`: population within `d(origin, dest)` of the
    /// origin, excluding both endpoints. Includes areas at *exactly* the
    /// destination's distance (closed disc), destination excluded.
    ///
    /// # Panics
    ///
    /// If either index is out of range, or `origin == dest`.
    pub fn s(&self, origin: usize, dest: usize) -> f64 {
        assert!(
            origin < self.len() && dest < self.len(),
            "index out of range"
        );
        assert_ne!(origin, dest, "s(i, i) is undefined");
        let d = self.geometry.distance(origin, dest);
        self.s_at_radius(origin, dest, d)
    }

    /// `s` for an explicit radius: one binary search over the origin's
    /// distance ranking plus a prefix-sum lookup.
    fn s_at_radius(&self, origin: usize, dest: usize, radius_km: f64) -> f64 {
        let row = self.geometry.ranked(origin);
        // Count areas with distance <= radius.
        let k = row.partition_point(|&(dist, _)| dist <= radius_km);
        if k == 0 {
            return 0.0;
        }
        let mut total = self.prefix[origin][k - 1];
        // Destination inside the disc must be excluded; its distance is
        // a cache lookup, not a recomputation.
        let d_dest = self.geometry.distance(origin, dest);
        if d_dest <= radius_km {
            total -= self.populations[dest];
        }
        total.max(0.0)
    }

    /// Reference O(n) implementation the prefix-sum path is tested
    /// against.
    #[cfg(test)]
    fn s_naive(&self, origin: usize, dest: usize) -> f64 {
        let d = self.geometry.distance(origin, dest);
        let mut total = 0.0;
        for j in 0..self.len() {
            if j == origin || j == dest {
                continue;
            }
            if self.geometry.distance(origin, j) <= d {
                total += self.populations[j];
            }
        }
        total
    }
}

/// Fitted radiation model (Eq. 3): the single scaling constant `C` is the
/// log-space least-squares intercept, i.e. the geometric mean of
/// `T / φ(m, n, s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiationFit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

impl RadiationFit {
    /// The structural factor `φ = m n / ((m+s)(m+n+s))`.
    #[must_use]
    pub(crate) fn structural_factor(obs: &FlowObservation) -> f64 {
        let (m, n, s) = (
            obs.origin_population,
            obs.dest_population,
            obs.intervening_population,
        );
        m * n / ((m + s) * (m + n + s))
    }

    /// Fits `C` over observations with positive flow and a positive
    /// structural factor, as the log-space intercept (geometric mean of
    /// `T / φ`).
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewObservations`] when no observation is usable.
    pub fn fit_columnar(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/radiation");
        let (log_c, n_used) = log_intercept(observations, Self::structural_factor)?;
        Ok(Self {
            c: debug_assert_finite(10f64.powf(log_c), "radiation C"),
            n_used,
        })
    }
}

impl ToJson for RadiationFit {
    fn to_json(&self) -> Json {
        Json::obj([("c", self.c.into()), ("n_used", self.n_used.into())])
    }
}

impl FittedModel for RadiationFit {
    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * Self::structural_factor(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, n: f64, d: f64, s: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: d,
            intervening_population: s,
            observed_flow: t,
        }
    }

    /// Four areas on a line: A --- B ---- C -------- D.
    fn line_world() -> InterveningPopulation {
        let centers = vec![
            Point::new_unchecked(0.0, 100.0), // A
            Point::new_unchecked(0.0, 101.0), // B (~111 km east)
            Point::new_unchecked(0.0, 102.5), // C (~278 km east of A)
            Point::new_unchecked(0.0, 105.0), // D (~556 km east of A)
        ];
        let pops = vec![1_000.0, 2_000.0, 4_000.0, 8_000.0];
        InterveningPopulation::build(&centers, &pops)
    }

    #[test]
    fn s_counts_strictly_intervening_areas() {
        let w = line_world();
        // A→B: nothing between them.
        assert_eq!(w.s(0, 1), 0.0);
        // A→C: B (2,000) is inside the disc.
        assert_eq!(w.s(0, 2), 2_000.0);
        // A→D: B and C inside.
        assert_eq!(w.s(0, 3), 6_000.0);
        // D→A: B and C inside.
        assert_eq!(w.s(3, 0), 6_000.0);
    }

    #[test]
    fn s_is_asymmetric_in_general() {
        let w = line_world();
        // B→C: disc around B of radius d(B,C) ≈ 167 km contains A.
        assert_eq!(w.s(1, 2), 1_000.0);
        // C→B: disc around C contains nothing else (A is farther, D too).
        assert_eq!(w.s(2, 1), 0.0);
    }

    #[test]
    fn s_matches_naive_on_gazetteer_like_layout() {
        // Pseudo-random scatter of 60 areas.
        let mut k = 9u64;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        let centers: Vec<Point> = (0..60)
            .map(|_| Point::new_unchecked(next(-44.0, -10.0), next(113.0, 154.0)))
            .collect();
        let pops: Vec<f64> = (0..60).map(|_| next(1e3, 1e6)).collect();
        let w = InterveningPopulation::build(&centers, &pops);
        for i in (0..60).step_by(7) {
            for j in (0..60).step_by(5) {
                if i == j {
                    continue;
                }
                let fast = w.s(i, j);
                let naive = w.s_naive(i, j);
                assert!(
                    (fast - naive).abs() < 1e-6 * naive.max(1.0),
                    "s({i},{j}): fast {fast} naive {naive}"
                );
            }
        }
    }

    #[test]
    fn from_geometry_shares_the_cache() {
        let centers = vec![
            Point::new_unchecked(0.0, 100.0),
            Point::new_unchecked(0.0, 101.0),
            Point::new_unchecked(0.0, 102.5),
        ];
        let geo = tweetmob_geo::PairGeometry::shared(&centers);
        let w = InterveningPopulation::from_geometry(
            std::sync::Arc::clone(&geo),
            &[1_000.0, 2_000.0, 4_000.0],
        );
        assert!(std::sync::Arc::ptr_eq(w.geometry(), &geo));
        assert_eq!(w.s(0, 2), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "s(i, i) is undefined")]
    fn s_self_pair_panics() {
        line_world().s(1, 1);
    }

    #[test]
    #[should_panic(expected = "centers and populations must align")]
    fn build_length_mismatch_panics() {
        InterveningPopulation::build(&[Point::new_unchecked(0.0, 0.0)], &[1.0, 2.0]);
    }

    #[test]
    fn structural_factor_known_value() {
        // m = n = s: φ = m² / (2m · 3m) = 1/6.
        let o = obs(100.0, 100.0, 10.0, 100.0, 1.0);
        assert!((RadiationFit::structural_factor(&o) - 1.0 / 6.0).abs() < 1e-12);
        // s = 0: φ = mn / (m(m+n)) = n/(m+n).
        let o = obs(300.0, 100.0, 10.0, 0.0, 1.0);
        assert!((RadiationFit::structural_factor(&o) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_scaling_constant_exactly() {
        let data: Vec<FlowObservation> = (1..40)
            .map(|i| {
                let (m, n, s) = (1e4 + 100.0 * i as f64, 5e3, 2e3 * (i % 5) as f64);
                let phi = m * n / ((m + s) * (m + n + s));
                obs(m, n, 50.0, s, 7.5 * phi)
            })
            .collect();
        let fit = RadiationFit::fit_columnar(&data).unwrap();
        assert!((fit.c - 7.5).abs() / 7.5 < 1e-9, "c = {}", fit.c);
        assert_eq!(fit.n_used, 39);
        for o in &data {
            assert!((fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow < 1e-9);
        }
    }

    #[test]
    fn radiation_misfits_gravity_generated_flows() {
        // Flows generated by a gravity law cannot be captured by C alone:
        // prediction errors must be large for at least some pairs. This is
        // the mechanism behind the paper's Table II ordering.
        let mut k = 5u64;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        let data: Vec<FlowObservation> = (0..100)
            .map(|_| {
                let m = next(1e3, 1e6);
                let n = next(1e3, 1e6);
                let d = next(10.0, 3_000.0);
                let s = next(0.0, 2e6);
                obs(m, n, d, s, 0.01 * m * n / (d * d))
            })
            .collect();
        let fit = RadiationFit::fit_columnar(&data).unwrap();
        let max_rel = data
            .iter()
            .map(|o| (fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow)
            .fold(0.0f64, f64::max);
        assert!(
            max_rel > 1.0,
            "radiation fit gravity data too well: {max_rel}"
        );
    }

    #[test]
    fn fit_errors_without_usable_observations() {
        assert!(matches!(
            RadiationFit::fit_columnar(&[]),
            Err(ModelError::TooFewObservations { .. })
        ));
        let zero_flow = vec![obs(1e4, 1e4, 10.0, 0.0, 0.0)];
        assert!(RadiationFit::fit_columnar(&zero_flow).is_err());
    }
}
