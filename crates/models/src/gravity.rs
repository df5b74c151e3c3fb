//! Gravity models (paper Eqs. 1–2), fitted by log-space least squares.
//!
//! "For Gravity models, given a series of m, n and d values, the
//! parameters α, β, and γ can be estimated from least-square fitting
//! after taking logarithm of the formulas" (§IV). Observations with a
//! zero flow, population or distance cannot enter a log fit and are
//! skipped; the number used is recorded on the fit.

use crate::columns::FitColumns;
use crate::fitted::FittedModel;
use crate::traits::{FlowObservation, ModelError};
use tweetmob_obs::{Json, ToJson};
use tweetmob_stats::check::debug_assert_finite;
use tweetmob_stats::regression::Ols;

/// Fitted 4-parameter gravity model: `P = C · mᵅ nᵝ / dᵞ` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity4Fit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Origin-population exponent α.
    pub alpha: f64,
    /// Destination-population exponent β.
    pub beta: f64,
    /// Distance-decay exponent γ.
    pub gamma: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

/// Fitted 2-parameter gravity model: `P = C · m n / dᵞ` (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gravity2Fit {
    /// Scaling constant `C`.
    pub c: f64,
    /// Distance-decay exponent γ.
    pub gamma: f64,
    /// R² of the log-space regression.
    pub log_r_squared: f64,
    /// Observations used in the fit.
    pub n_used: usize,
}

impl Gravity4Fit {
    /// Fits `log P = log C + α·log m + β·log n − γ·log d` by OLS.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewObservations`] with fewer than 4 fittable
    /// observations; [`ModelError::DegenerateFit`] on collinear inputs
    /// (e.g. every observation sharing one origin population).
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/gravity4");
        let mut ols = Ols::new(3);
        for o in observations.iter().filter(|o| o.fittable()) {
            ols.add(
                &[
                    o.origin_population.log10(),
                    o.dest_population.log10(),
                    o.distance_km.log10(),
                ],
                o.observed_flow.log10(),
            )
            ?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        Ok(Self {
            c: debug_assert_finite(10f64.powf(fit.intercept()), "gravity-4 C"),
            alpha: debug_assert_finite(fit.coef(0), "gravity-4 alpha"),
            beta: debug_assert_finite(fit.coef(1), "gravity-4 beta"),
            gamma: debug_assert_finite(-fit.coef(2), "gravity-4 gamma"),
            log_r_squared: debug_assert_finite(fit.r_squared, "gravity-4 R^2"),
            n_used,
        })
    }
}

/// One linearly spaced search axis for [`GravityGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridAxis {
    /// First grid value.
    pub min: f64,
    /// Last grid value (equals `min` when `steps == 1`).
    pub max: f64,
    /// Number of grid values (≥ 1).
    pub steps: usize,
}

impl GridAxis {
    /// The `i`-th value on the axis (`i < steps`).
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        if self.steps <= 1 {
            self.min
        } else {
            self.min + (self.max - self.min) * i as f64 / (self.steps - 1) as f64
        }
    }

    fn valid(&self) -> bool {
        self.steps >= 1 && self.min.is_finite() && self.max.is_finite() && self.min <= self.max
    }
}

/// Exponent search grid for [`Gravity4Fit::fit_grid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GravityGrid {
    /// Origin-population exponent axis.
    pub alpha: GridAxis,
    /// Destination-population exponent axis.
    pub beta: GridAxis,
    /// Distance-decay exponent axis.
    pub gamma: GridAxis,
}

impl Default for GravityGrid {
    /// α, β ∈ [0, 2] and γ ∈ [0, 3], all at 0.05 resolution —
    /// 41 × 41 × 61 ≈ 103 k candidates, bracketing every exponent the
    /// paper or the mobility literature reports.
    fn default() -> Self {
        Self {
            alpha: GridAxis {
                min: 0.0,
                max: 2.0,
                steps: 41,
            },
            beta: GridAxis {
                min: 0.0,
                max: 2.0,
                steps: 41,
            },
            gamma: GridAxis {
                min: 0.0,
                max: 3.0,
                steps: 61,
            },
        }
    }
}

impl GravityGrid {
    /// Total candidate count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alpha.steps * self.beta.steps * self.gamma.steps
    }

    /// Whether the grid has no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a linear candidate index into `(α, β, γ)`.
    fn decode(&self, idx: usize) -> (f64, f64, f64) {
        let ig = idx % self.gamma.steps;
        let ib = (idx / self.gamma.steps) % self.beta.steps;
        let ia = idx / (self.gamma.steps * self.beta.steps);
        (
            self.alpha.value(ia),
            self.beta.value(ib),
            self.gamma.value(ig),
        )
    }
}

/// Per-chunk best candidate: SSE with the linear index as total
/// tie-break, so the min-merge is order-independent and the grid search
/// is bit-identical at every thread count.
#[derive(Clone, Copy)]
struct BestCandidate {
    sse: f64,
    idx: usize,
}

impl BestCandidate {
    fn better_than(&self, other: &Self) -> bool {
        self.sse
            .total_cmp(&other.sse)
            .then(self.idx.cmp(&other.idx))
            == std::cmp::Ordering::Less
    }
}

impl Gravity4Fit {
    /// Fits Eq. 1 by exhaustive grid search over `(α, β, γ)` with the
    /// scale `C` solved in closed form per candidate (the log-space SSE
    /// is quadratic in `log C`, minimised at the mean residual).
    ///
    /// Unlike the OLS [`fit`](Self::fit) this is robust to collinear
    /// predictors and lets callers bound the exponents; it is also the
    /// workspace's showcase compute-bound stage, dispatched over
    /// [`tweetmob_par`] (`par/gravity-grid/*` gauges). The winning
    /// candidate is the minimum SSE with the smaller linear grid index
    /// as a total tie-break, so the result is identical at every thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`ModelError::TooFewObservations`] with fewer than 2 fittable
    /// observations; [`ModelError::DegenerateFit`] on an invalid/empty
    /// grid or zero variance in log flows.
    pub fn fit_grid(
        observations: &[FlowObservation],
        grid: &GravityGrid,
    ) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/gravity4-grid");
        if !(grid.alpha.valid() && grid.beta.valid() && grid.gamma.valid()) {
            return Err(ModelError::DegenerateFit("invalid gravity search grid"));
        }
        // Columnar log features, built once per fit: every (α, β) run
        // then collapses to five sufficient statistics and each of the
        // ~10^5 candidates is scored in closed form.
        let cols = FitColumns::from_observations(observations);
        let n_used = cols.len();
        if n_used < 2 {
            return Err(ModelError::TooFewObservations {
                needed: 2,
                got: n_used,
            });
        }
        let n = n_used as f64;
        let mean_lp = cols.ln_t().iter().sum::<f64>() / n;
        let sst: f64 = cols.ln_t().iter().map(|&lt| (lt - mean_lp).powi(2)).sum();
        if sst <= 0.0 {
            return Err(ModelError::DegenerateFit("zero variance in log flows"));
        }

        // Candidate indices vary gamma fastest (see `decode`), so every
        // contiguous chunk is a sequence of gamma runs at fixed (α, β).
        // Per run the α/β part of the residual — u_i = ln T − α·ln m −
        // β·ln n — is hoisted into a scratch buffer and reduced to the
        // five run moments (Σu, Σu², Σu·ln d, Σln d, Σln d²); each
        // candidate is then a closed-form O(1) SSE instead of an O(n)
        // sweep. Scratch and moments depend only on (α, β), so chunk
        // boundaries cannot change any candidate's value and the search
        // stays byte-identical at every thread count. The closed form
        // only *ranks* candidates — the winner's fit is recomputed with
        // the pre-columnar expression in `finish_grid_winner`.
        let cols = &cols;
        let gamma_steps = grid.gamma.steps;
        let best = tweetmob_par::par_map_reduce(
            "gravity-grid",
            grid.len(),
            4096,
            |range| {
                let mut best = BestCandidate {
                    sse: f64::INFINITY,
                    idx: usize::MAX,
                };
                let mut u = vec![0.0; n_used];
                let mut current_run = usize::MAX;
                let mut moments = cols.run_moments(&u);
                for idx in range {
                    let run = idx / gamma_steps;
                    if run != current_run {
                        let alpha = grid.alpha.value(run / grid.beta.steps);
                        let beta = grid.beta.value(run % grid.beta.steps);
                        cols.fill_partial_residuals(alpha, beta, &mut u);
                        moments = cols.run_moments(&u);
                        current_run = run;
                    }
                    // Optimal log C is mean(r), so SSE = Σr² − (Σr)²/n.
                    let gamma = grid.gamma.value(idx - run * gamma_steps);
                    let sse = moments.candidate_sse(gamma, n);
                    let cand = BestCandidate { sse, idx };
                    if cand.better_than(&best) {
                        best = cand;
                    }
                }
                best
            },
            |a, b| if b.better_than(&a) { b } else { a },
        );
        if best.idx == usize::MAX {
            return Err(ModelError::DegenerateFit("empty gravity search grid"));
        }
        Ok(Self::finish_grid_winner(cols, grid, best.idx, sst))
    }

    /// Recomputes the winning candidate's intercept and R² serially in
    /// index order, with the pre-columnar expression — the reported fit
    /// never depends on chunk-local or lane-local rounding, and the new
    /// and reference search paths report byte-identical fits whenever
    /// they agree on the argmin.
    fn finish_grid_winner(cols: &FitColumns, grid: &GravityGrid, idx: usize, sst: f64) -> Self {
        let (alpha, beta, gamma) = grid.decode(idx);
        let n = cols.len() as f64;
        let residual = |i: usize| {
            cols.ln_t()[i]
                - (alpha * cols.ln_m()[i] + beta * cols.ln_n()[i] - gamma * cols.ln_d()[i])
        };
        let log_c = (0..cols.len()).map(residual).sum::<f64>() / n;
        let sse: f64 = (0..cols.len()).map(|i| (residual(i) - log_c).powi(2)).sum();
        Self {
            c: debug_assert_finite(10f64.powf(log_c), "gravity-grid C"),
            alpha,
            beta,
            gamma,
            log_r_squared: debug_assert_finite(1.0 - sse / sst, "gravity-grid R^2"),
            n_used: cols.len(),
        }
    }

    /// The pre-columnar grid search, the reference [`fit_grid`](Self::fit_grid)
    /// is tested against: array-of-structs logs, full 3-multiply
    /// residual per observation per candidate. Semantics and guards are
    /// identical; only the per-candidate evaluation differs.
    #[cfg(test)]
    fn fit_grid_reference(
        observations: &[FlowObservation],
        grid: &GravityGrid,
    ) -> Result<Self, ModelError> {
        if !(grid.alpha.valid() && grid.beta.valid() && grid.gamma.valid()) {
            return Err(ModelError::DegenerateFit("invalid gravity search grid"));
        }
        let logs: Vec<[f64; 4]> = observations
            .iter()
            .filter(|o| o.fittable())
            .map(|o| {
                [
                    o.origin_population.log10(),
                    o.dest_population.log10(),
                    o.distance_km.log10(),
                    o.observed_flow.log10(),
                ]
            })
            .collect();
        let n_used = logs.len();
        if n_used < 2 {
            return Err(ModelError::TooFewObservations {
                needed: 2,
                got: n_used,
            });
        }
        let n = n_used as f64;
        let mean_lp = logs.iter().map(|l| l[3]).sum::<f64>() / n;
        let sst: f64 = logs.iter().map(|l| (l[3] - mean_lp).powi(2)).sum();
        if sst <= 0.0 {
            return Err(ModelError::DegenerateFit("zero variance in log flows"));
        }

        let logs = &logs;
        let best = tweetmob_par::par_map_reduce(
            "gravity-grid-reference",
            grid.len(),
            4096,
            |range| {
                let mut best = BestCandidate {
                    sse: f64::INFINITY,
                    idx: usize::MAX,
                };
                for idx in range {
                    let (alpha, beta, gamma) = grid.decode(idx);
                    let mut sum = 0.0;
                    let mut sumsq = 0.0;
                    for l in logs {
                        let r = l[3] - (alpha * l[0] + beta * l[1] - gamma * l[2]);
                        sum += r;
                        sumsq += r * r;
                    }
                    let sse = sumsq - sum * sum / n;
                    let cand = BestCandidate { sse, idx };
                    if cand.better_than(&best) {
                        best = cand;
                    }
                }
                best
            },
            |a, b| if b.better_than(&a) { b } else { a },
        );
        if best.idx == usize::MAX {
            return Err(ModelError::DegenerateFit("empty gravity search grid"));
        }
        let cols = FitColumns::from_observations(observations);
        Ok(Self::finish_grid_winner(&cols, grid, best.idx, sst))
    }
}

impl ToJson for Gravity4Fit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("c", self.c.into()),
            ("alpha", self.alpha.into()),
            ("beta", self.beta.into()),
            ("gamma", self.gamma.into()),
            ("log_r_squared", self.log_r_squared.into()),
            ("n_used", self.n_used.into()),
        ])
    }
}

impl FittedModel for Gravity4Fit {
    fn model_name(&self) -> &'static str {
        "Gravity 4Param"
    }

    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * obs.origin_population.powf(self.alpha) * obs.dest_population.powf(self.beta)
            / obs.distance_km.powf(self.gamma)
    }
}

impl Gravity2Fit {
    /// Fits `log P − log(mn) = log C − γ·log d` by OLS (one predictor).
    ///
    /// # Errors
    ///
    /// As [`Gravity4Fit::fit`], with a 2-observation minimum.
    pub fn fit(observations: &[FlowObservation]) -> Result<Self, ModelError> {
        let _span = tweetmob_obs::span!("fit/gravity2");
        let mut ols = Ols::new(1);
        for o in observations.iter().filter(|o| o.fittable()) {
            let lhs =
                o.observed_flow.log10() - o.origin_population.log10() - o.dest_population.log10();
            ols.add(&[o.distance_km.log10()], lhs)
                ?;
        }
        let n_used = ols.n();
        let fit = ols.solve()?;
        Ok(Self {
            c: debug_assert_finite(10f64.powf(fit.intercept()), "gravity-2 C"),
            gamma: debug_assert_finite(-fit.coef(0), "gravity-2 gamma"),
            log_r_squared: debug_assert_finite(fit.r_squared, "gravity-2 R^2"),
            n_used,
        })
    }
}

impl ToJson for Gravity2Fit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("c", self.c.into()),
            ("gamma", self.gamma.into()),
            ("log_r_squared", self.log_r_squared.into()),
            ("n_used", self.n_used.into()),
        ])
    }
}

impl FittedModel for Gravity2Fit {
    fn model_name(&self) -> &'static str {
        "Gravity 2Param"
    }

    fn predict_flow(&self, obs: &FlowObservation) -> f64 {
        self.c * obs.origin_population * obs.dest_population / obs.distance_km.powf(self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(m: f64, n: f64, d: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: d,
            intervening_population: 0.0,
            observed_flow: t,
        }
    }

    /// Deterministic pseudo-random positive value in [lo, hi).
    fn prand(k: &mut u64, lo: f64, hi: f64) -> f64 {
        *k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (*k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    fn synthetic(c: f64, alpha: f64, beta: f64, gamma: f64, n: usize) -> Vec<FlowObservation> {
        let mut k = 42u64;
        (0..n)
            .map(|_| {
                let m = prand(&mut k, 1e3, 1e6);
                let nn = prand(&mut k, 1e3, 1e6);
                let d = prand(&mut k, 5.0, 3_000.0);
                obs(m, nn, d, c * m.powf(alpha) * nn.powf(beta) / d.powf(gamma))
            })
            .collect()
    }

    #[test]
    fn gravity4_recovers_exact_parameters() {
        let data = synthetic(0.003, 0.85, 1.1, 1.8, 300);
        let fit = Gravity4Fit::fit(&data).unwrap();
        assert!((fit.alpha - 0.85).abs() < 1e-9, "alpha {}", fit.alpha);
        assert!((fit.beta - 1.1).abs() < 1e-9, "beta {}", fit.beta);
        assert!((fit.gamma - 1.8).abs() < 1e-9, "gamma {}", fit.gamma);
        assert!((fit.c - 0.003).abs() / 0.003 < 1e-9, "c {}", fit.c);
        assert!((fit.log_r_squared - 1.0).abs() < 1e-9);
        assert_eq!(fit.n_used, 300);
    }

    #[test]
    fn gravity2_recovers_exact_parameters() {
        let data = synthetic(0.01, 1.0, 1.0, 2.0, 200);
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert!((fit.gamma - 2.0).abs() < 1e-9);
        assert!((fit.c - 0.01).abs() / 0.01 < 1e-9);
        assert_eq!(fit.n_used, 200);
    }

    #[test]
    fn gravity4_prediction_matches_generating_law() {
        let data = synthetic(0.2, 1.0, 0.9, 2.2, 100);
        let fit = Gravity4Fit::fit(&data).unwrap();
        for o in &data {
            let rel = (fit.predict_flow(o) - o.observed_flow).abs() / o.observed_flow;
            assert!(rel < 1e-7, "relative error {rel}");
        }
    }

    #[test]
    fn gravity2_is_gravity4_with_unit_exponents() {
        let data = synthetic(0.05, 1.0, 1.0, 1.5, 150);
        let g2 = Gravity2Fit::fit(&data).unwrap();
        let g4 = Gravity4Fit::fit(&data).unwrap();
        // On data generated with α=β=1 both models coincide.
        assert!((g4.alpha - 1.0).abs() < 1e-9);
        assert!((g4.beta - 1.0).abs() < 1e-9);
        assert!((g2.gamma - g4.gamma).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_recovers_parameters_approximately() {
        let mut data = synthetic(0.01, 1.0, 1.0, 2.0, 400);
        let mut k = 7u64;
        for o in &mut data {
            // Multiplicative noise up to ±30 %.
            o.observed_flow *= prand(&mut k, 0.7, 1.3);
        }
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert!((fit.gamma - 2.0).abs() < 0.05, "gamma {}", fit.gamma);
        assert!(fit.log_r_squared > 0.98);
    }

    #[test]
    fn zero_flow_observations_are_skipped() {
        let mut data = synthetic(0.01, 1.0, 1.0, 2.0, 50);
        data.push(obs(1e5, 1e5, 100.0, 0.0)); // unobserved pair
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert_eq!(fit.n_used, 50);
    }

    #[test]
    fn too_few_observations_error() {
        let data = vec![obs(1e5, 1e5, 100.0, 10.0)];
        assert!(matches!(
            Gravity4Fit::fit(&data),
            Err(ModelError::TooFewObservations { .. })
        ));
        assert!(matches!(
            Gravity2Fit::fit(&[]),
            Err(ModelError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn constant_distance_is_degenerate_for_g2() {
        let data: Vec<FlowObservation> = (1..20)
            .map(|i| obs(1e4 * i as f64, 1e4, 100.0, i as f64))
            .collect();
        assert!(matches!(
            Gravity2Fit::fit(&data),
            Err(ModelError::DegenerateFit(_))
        ));
    }

    #[test]
    fn grid_search_recovers_on_grid_parameters() {
        // 0.85 / 1.1 / 1.8 all sit exactly on the default 0.05 lattice.
        let data = synthetic(0.003, 0.85, 1.1, 1.8, 120);
        let fit = Gravity4Fit::fit_grid(&data, &GravityGrid::default()).unwrap();
        assert!((fit.alpha - 0.85).abs() < 1e-12, "alpha {}", fit.alpha);
        assert!((fit.beta - 1.1).abs() < 1e-12, "beta {}", fit.beta);
        assert!((fit.gamma - 1.8).abs() < 1e-12, "gamma {}", fit.gamma);
        assert!((fit.c - 0.003).abs() / 0.003 < 1e-6, "c {}", fit.c);
        assert!(fit.log_r_squared > 1.0 - 1e-9);
        assert_eq!(fit.n_used, 120);
    }

    #[test]
    fn grid_search_is_thread_count_invariant() {
        let data = synthetic(0.02, 0.6, 1.25, 2.1, 80);
        let grid = GravityGrid::default();
        let serial = tweetmob_par::with_threads(1, || Gravity4Fit::fit_grid(&data, &grid).unwrap());
        let parallel =
            tweetmob_par::with_threads(8, || Gravity4Fit::fit_grid(&data, &grid).unwrap());
        // Bit-identical, not merely close: the min-merge has a total
        // tie-break and SSEs are computed per-candidate.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_search_matches_reference_bit_for_bit() {
        // Noisy data so the argmin is decided by real SSE comparisons,
        // not an exact on-lattice minimum.
        let mut data = synthetic(0.02, 0.6, 1.25, 2.1, 97);
        let mut k = 11u64;
        for o in &mut data {
            o.observed_flow *= prand(&mut k, 0.8, 1.2);
        }
        // Both paths must drop the same rows: zero flows (what real OD
        // matrices are mostly made of) and other non-fittable pairs,
        // interleaved with the fittable ones.
        let mut holes = data.clone();
        for (i, o) in holes.iter_mut().enumerate() {
            match i % 4 {
                0 => o.observed_flow = 0.0,
                1 if i % 3 == 0 => o.distance_km = 0.0,
                1 if i % 5 == 0 => o.dest_population = f64::NAN,
                _ => {}
            }
        }
        data.extend(holes);
        assert!(data.iter().any(|o| !o.fittable()));
        let grid = GravityGrid::default();
        for threads in [1, 8] {
            let new = tweetmob_par::with_threads(threads, || {
                Gravity4Fit::fit_grid(&data, &grid).unwrap()
            });
            let old = tweetmob_par::with_threads(threads, || {
                Gravity4Fit::fit_grid_reference(&data, &grid).unwrap()
            });
            assert_eq!(new, old, "columnar vs reference at {threads} threads");
        }
    }

    #[test]
    fn grid_search_reference_shares_guards() {
        let data = synthetic(0.01, 1.0, 1.0, 2.0, 50);
        let mut grid = GravityGrid::default();
        grid.alpha.steps = 0;
        assert!(matches!(
            Gravity4Fit::fit_grid_reference(&data, &grid),
            Err(ModelError::DegenerateFit(_))
        ));
        assert!(matches!(
            Gravity4Fit::fit_grid_reference(&data[..1], &GravityGrid::default()),
            Err(ModelError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn grid_axis_endpoints_and_single_step() {
        let ax = GridAxis {
            min: 0.0,
            max: 2.0,
            steps: 41,
        };
        assert_eq!(ax.value(0), 0.0);
        assert_eq!(ax.value(40), 2.0);
        assert!((ax.value(17) - 0.85).abs() < 1e-12);
        let pinned = GridAxis {
            min: 1.5,
            max: 1.5,
            steps: 1,
        };
        assert_eq!(pinned.value(0), 1.5);
    }

    #[test]
    fn grid_search_rejects_bad_inputs() {
        let data = synthetic(0.01, 1.0, 1.0, 2.0, 50);
        let mut grid = GravityGrid::default();
        grid.alpha.steps = 0;
        assert!(matches!(
            Gravity4Fit::fit_grid(&data, &grid),
            Err(ModelError::DegenerateFit(_))
        ));
        let inverted = GravityGrid {
            gamma: GridAxis {
                min: 2.0,
                max: 1.0,
                steps: 5,
            },
            ..GravityGrid::default()
        };
        assert!(matches!(
            Gravity4Fit::fit_grid(&data, &inverted),
            Err(ModelError::DegenerateFit(_))
        ));
        assert!(matches!(
            Gravity4Fit::fit_grid(&data[..1], &GravityGrid::default()),
            Err(ModelError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn model_names() {
        let data = synthetic(0.01, 1.0, 1.0, 2.0, 50);
        assert_eq!(
            Gravity4Fit::fit(&data).unwrap().model_name(),
            "Gravity 4Param"
        );
        assert_eq!(
            Gravity2Fit::fit(&data).unwrap().model_name(),
            "Gravity 2Param"
        );
    }
}
