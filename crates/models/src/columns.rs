//! Struct-of-arrays log-feature columns for the fitting hot path.
//!
//! [`Gravity4Fit::fit_grid`](crate::Gravity4Fit::fit_grid) evaluates
//! ~10⁵ lattice candidates against the same observations. Storing the
//! per-observation logs as four contiguous `f64` columns instead of an
//! array-of-structs lets each candidate reduce to a handful of scalar
//! multiplies and adds over cache-line-friendly slices, and lets the
//! gamma axis (the fastest-varying one) reuse the `α`/`β` part of the
//! residual across a whole run of candidates — all the way down to
//! O(1) per candidate via the run-level sufficient statistics of
//! [`RunMoments`].
//!
//! **Determinism contract**: every reduction here runs in a fixed
//! order — [`FitColumns::run_moments`] and [`ScoreColumns::intercept`]
//! sum serially in observation order. The result depends only on the
//! column contents, never on thread count or chunk boundaries, so the
//! grid search stays byte-identical under any `tweetmob-par` dispatch.

use crate::traits::FlowObservation;

/// Fixed accumulator-lane count of `FitColumns::candidate_moments`, the
/// direct per-candidate sweep the closed-form [`RunMoments`] are tested
/// against. Changing it changes the low bits of every direct SSE.
#[cfg(test)]
const LANES: usize = 4;

/// Log-space feature columns of the fittable observations, in input
/// order: `log₁₀ m`, `log₁₀ n`, `log₁₀ d`, `log₁₀ T`.
///
/// Built once per fit ([`FitColumns::from_observations`] filters with
/// [`FlowObservation::fittable`] exactly like the row-wise fitters), so
/// the grid search pays the `log10` cost n times instead of n × 10⁵.
#[derive(Debug, Clone, PartialEq)]
pub struct FitColumns {
    ln_m: Vec<f64>,
    ln_n: Vec<f64>,
    ln_d: Vec<f64>,
    ln_t: Vec<f64>,
}

impl FitColumns {
    /// Extracts the columns from the fittable subset of `observations`.
    #[must_use]
    pub fn from_observations(observations: &[FlowObservation]) -> Self {
        let fittable = observations.iter().filter(|o| o.fittable());
        let mut cols = Self {
            ln_m: Vec::new(),
            ln_n: Vec::new(),
            ln_d: Vec::new(),
            ln_t: Vec::new(),
        };
        for o in fittable {
            cols.ln_m.push(o.origin_population.log10());
            cols.ln_n.push(o.dest_population.log10());
            cols.ln_d.push(o.distance_km.log10());
            cols.ln_t.push(o.observed_flow.log10());
        }
        cols
    }

    /// Number of (fittable) observations in the columns.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.ln_t.len()
    }

    /// Whether no observation survived the fittable filter.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ln_t.is_empty()
    }

    /// `log₁₀` origin populations.
    #[inline]
    #[must_use]
    pub fn ln_m(&self) -> &[f64] {
        &self.ln_m
    }

    /// `log₁₀` destination populations.
    #[inline]
    #[must_use]
    pub fn ln_n(&self) -> &[f64] {
        &self.ln_n
    }

    /// `log₁₀` pair distances.
    #[inline]
    #[must_use]
    pub fn ln_d(&self) -> &[f64] {
        &self.ln_d
    }

    /// `log₁₀` observed flows.
    #[inline]
    #[must_use]
    pub fn ln_t(&self) -> &[f64] {
        &self.ln_t
    }

    /// Fills `u[i] = ln_t[i] − α·ln_m[i] − β·ln_n[i]`, the part of the
    /// pre-intercept residual that is constant along a gamma run.
    ///
    /// # Panics
    ///
    /// If `u.len() != self.len()`.
    pub fn fill_partial_residuals(&self, alpha: f64, beta: f64, u: &mut [f64]) {
        assert_eq!(u.len(), self.len(), "scratch buffer must match columns");
        for (((ui, &lt), &lm), &ln) in u.iter_mut().zip(&self.ln_t).zip(&self.ln_m).zip(&self.ln_n)
        {
            *ui = lt - alpha * lm - beta * ln;
        }
    }

    /// `(Σr, Σr²)` for the candidate residuals `r[i] = u[i] + γ·ln_d[i]`
    /// where `u` comes from [`FitColumns::fill_partial_residuals`].
    ///
    /// Accumulates into [`LANES`] lanes combined in a fixed order — the
    /// value is a pure function of `(u, ln_d, γ)`.
    ///
    /// # Panics
    ///
    /// If `u.len() != self.len()`.
    #[cfg(test)]
    fn candidate_moments(&self, u: &[f64], gamma: f64) -> (f64, f64) {
        assert_eq!(u.len(), self.len(), "scratch buffer must match columns");
        let ld = &self.ln_d[..u.len()];
        let mut s = [0.0f64; LANES];
        let mut q = [0.0f64; LANES];
        let blocks = u.len() / LANES * LANES;
        let mut k = 0;
        while k < blocks {
            for lane in 0..LANES {
                let r = u[k + lane] + gamma * ld[k + lane];
                s[lane] += r;
                q[lane] += r * r;
            }
            k += LANES;
        }
        let mut sum = (s[0] + s[1]) + (s[2] + s[3]);
        let mut sumsq = (q[0] + q[1]) + (q[2] + q[3]);
        while k < u.len() {
            let r = u[k] + gamma * ld[k];
            sum += r;
            sumsq += r * r;
            k += 1;
        }
        (sum, sumsq)
    }

    /// Sufficient statistics of a whole `(α, β)` gamma run: one O(n)
    /// sweep over `u` and `ln_d`, after which every γ candidate on the
    /// run is scored in O(1) by [`RunMoments::candidate_sse`].
    ///
    /// A fixed-order pure function of `(u, ln_d)` — chunk boundaries
    /// and thread counts cannot change its value, because `u` itself
    /// only depends on `(α, β)`.
    ///
    /// # Panics
    ///
    /// If `u.len() != self.len()`.
    #[must_use]
    pub fn run_moments(&self, u: &[f64]) -> RunMoments {
        assert_eq!(u.len(), self.len(), "scratch buffer must match columns");
        let mut m = RunMoments {
            su: 0.0,
            suu: 0.0,
            sud: 0.0,
            sd: 0.0,
            sdd: 0.0,
        };
        for (&ui, &di) in u.iter().zip(&self.ln_d) {
            m.su += ui;
            m.suu += ui * ui;
            m.sud += ui * di;
            m.sd += di;
            m.sdd += di * di;
        }
        m
    }
}

/// Per-observation score column for the single-constant models
/// (Radiation, intervening Opportunities): `dlog[i] = log₁₀ T[i] −
/// log₁₀ φ[i]` over the usable observations, in input order.
///
/// Both models fit only a scaling constant `C` — the geometric mean of
/// `T / φ` — so the whole fit reduces to one serial sum over this
/// column. The expensive part, the per-observation `log10`s and the
/// structural factor `φ`, is embarrassingly parallel: each element is a
/// pure function of its own observation, so [`ScoreColumns::build`]
/// shards the observation range over the `tweetmob-par` pool and
/// concatenates the chunk outputs in chunk order. The column contents —
/// and therefore the fitted `C` — are byte-identical at every thread
/// count, and byte-identical to the row-wise reference loop, because
/// the final reduction ([`ScoreColumns::intercept`]) always runs
/// serially left-to-right in observation order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreColumns {
    dlog: Vec<f64>,
}

impl ScoreColumns {
    /// Minimum observation count before the build shards across threads.
    const MIN_PARALLEL: usize = 2_048;

    /// Extracts `log₁₀ T − log₁₀ φ` for every usable observation
    /// (fittable, with a positive finite structural factor `φ`),
    /// preserving input order.
    ///
    /// `phi` must be a pure function of the observation; the build
    /// evaluates it exactly once per observation, in parallel.
    pub fn build<F>(observations: &[FlowObservation], phi: F) -> Self
    where
        F: Fn(&FlowObservation) -> f64 + Sync,
    {
        let chunks = tweetmob_par::par_map_chunks(
            "fit/score-columns",
            observations.len(),
            Self::MIN_PARALLEL,
            |range| {
                let mut dlog = Vec::new();
                for o in &observations[range] {
                    if !o.fittable() {
                        continue;
                    }
                    let p = phi(o);
                    if p > 0.0 && p.is_finite() {
                        dlog.push(o.observed_flow.log10() - p.log10());
                    }
                }
                dlog
            },
        );
        let mut dlog = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            dlog.extend_from_slice(&chunk);
        }
        Self { dlog }
    }

    /// Number of usable observations in the column.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.dlog.len()
    }

    /// Whether no observation survived the usability filter.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dlog.is_empty()
    }

    /// `(Σ dlog, n)` — the serial left-to-right sum the geometric-mean
    /// constant derives from (`C = 10^(Σ/n)`), or `None` when the
    /// column is empty. Always reduced in observation order so the
    /// result matches the row-wise reference loop bit-for-bit.
    #[must_use]
    pub fn intercept(&self) -> Option<(f64, usize)> {
        if self.dlog.is_empty() {
            return None;
        }
        let mut acc = 0.0;
        for &d in &self.dlog {
            acc += d;
        }
        Some((acc, self.dlog.len()))
    }
}

/// Per-run sufficient statistics for the closed-form grid search: with
/// `u[i] = ln_t[i] − α·ln_m[i] − β·ln_n[i]` fixed along a gamma run and
/// residuals `r[i] = u[i] + γ·ln_d[i]`, the candidate moments expand to
///
/// ```text
/// Σr  = Σu  + γ·Σd
/// Σr² = Σu² + 2γ·Σud + γ²·Σd²
/// ```
///
/// so the SSE of every candidate on the run follows from five scalars.
///
/// The expansion reassociates the arithmetic, so an SSE from
/// [`RunMoments::candidate_sse`] differs from the row-wise sweep in the
/// low bits (~1e-12 relative) — far below the SSE gaps between lattice
/// candidates. The grid search therefore uses it only to *rank*
/// candidates; the winner's reported fit is recomputed serially with
/// the pre-columnar expression, keeping reported fits byte-identical to
/// the reference path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMoments {
    /// `Σ u`.
    pub su: f64,
    /// `Σ u²`.
    pub suu: f64,
    /// `Σ u·ln_d`.
    pub sud: f64,
    /// `Σ ln_d`.
    pub sd: f64,
    /// `Σ ln_d²`.
    pub sdd: f64,
}

impl RunMoments {
    /// `SSE = Σr² − (Σr)²/n` for the candidate with decay exponent
    /// `gamma` on this run, in O(1).
    #[inline]
    #[must_use]
    pub fn candidate_sse(&self, gamma: f64, n: f64) -> f64 {
        let sum = self.su + gamma * self.sd;
        let sumsq = self.suu + 2.0 * gamma * self.sud + gamma * gamma * self.sdd;
        sumsq - sum * sum / n
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

    fn sample(count: usize) -> Vec<FlowObservation> {
        let mut k = 3u64;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        (0..count)
            .map(|_| {
                obs(
                    next(1e3, 1e6),
                    next(1e3, 1e6),
                    next(5.0, 3_000.0),
                    next(1.0, 1e4),
                )
            })
            .collect()
    }

    #[test]
    fn columns_mirror_fittable_rows() {
        let mut data = sample(30);
        data.push(obs(1e4, 1e4, 100.0, 0.0)); // unfittable: zero flow
        let cols = FitColumns::from_observations(&data);
        assert_eq!(cols.len(), 30);
        assert!(!cols.is_empty());
        for (i, o) in data.iter().take(30).enumerate() {
            assert_eq!(cols.ln_m()[i], o.origin_population.log10());
            assert_eq!(cols.ln_n()[i], o.dest_population.log10());
            assert_eq!(cols.ln_d()[i], o.distance_km.log10());
            assert_eq!(cols.ln_t()[i], o.observed_flow.log10());
        }
    }

    #[test]
    fn moments_match_row_wise_reference_closely() {
        let data = sample(57); // deliberately not a multiple of LANES
        let cols = FitColumns::from_observations(&data);
        let (alpha, beta, gamma) = (0.85, 1.1, 1.8);
        let mut u = vec![0.0; cols.len()];
        cols.fill_partial_residuals(alpha, beta, &mut u);
        let (sum, sumsq) = cols.candidate_moments(&u, gamma);
        // Serial row-wise reference (different summation order, so only
        // close, not bit-equal — the grid search never mixes the two).
        let (mut rs, mut rq) = (0.0, 0.0);
        for o in &data {
            let r = o.observed_flow.log10()
                - (alpha * o.origin_population.log10() + beta * o.dest_population.log10()
                    - gamma * o.distance_km.log10());
            rs += r;
            rq += r * r;
        }
        assert!((sum - rs).abs() < 1e-9 * rs.abs().max(1.0), "{sum} vs {rs}");
        assert!((sumsq - rq).abs() < 1e-9 * rq.max(1.0), "{sumsq} vs {rq}");
    }

    #[test]
    fn moments_are_a_pure_function_of_inputs() {
        let data = sample(41);
        let cols = FitColumns::from_observations(&data);
        let mut u = vec![0.0; cols.len()];
        cols.fill_partial_residuals(0.3, 0.7, &mut u);
        let a = cols.candidate_moments(&u, 2.05);
        let b = cols.candidate_moments(&u, 2.05);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }

    #[test]
    #[should_panic(expected = "scratch buffer must match columns")]
    fn mismatched_scratch_panics() {
        let cols = FitColumns::from_observations(&sample(8));
        let _ = cols.candidate_moments(&[0.0; 4], 1.0);
    }

    #[test]
    fn closed_form_sse_matches_direct_sweep_closely() {
        let data = sample(57);
        let cols = FitColumns::from_observations(&data);
        let n = cols.len() as f64;
        let mut u = vec![0.0; cols.len()];
        for (alpha, beta) in [(0.0, 0.0), (0.85, 1.1), (2.0, 2.0)] {
            cols.fill_partial_residuals(alpha, beta, &mut u);
            let moments = cols.run_moments(&u);
            for gamma in [0.0, 0.05, 1.8, 3.0] {
                let (sum, sumsq) = cols.candidate_moments(&u, gamma);
                let direct = sumsq - sum * sum / n;
                let closed = moments.candidate_sse(gamma, n);
                assert!(
                    (closed - direct).abs() < 1e-9 * direct.abs().max(1.0),
                    "α={alpha} β={beta} γ={gamma}: {closed} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn run_moments_are_a_pure_function_of_inputs() {
        let data = sample(23);
        let cols = FitColumns::from_observations(&data);
        let mut u = vec![0.0; cols.len()];
        cols.fill_partial_residuals(0.3, 0.7, &mut u);
        let a = cols.run_moments(&u);
        let b = cols.run_moments(&u);
        assert_eq!(a, b);
        assert_eq!(
            a.candidate_sse(2.05, 23.0).to_bits(),
            b.candidate_sse(2.05, 23.0).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "scratch buffer must match columns")]
    fn run_moments_mismatched_scratch_panics() {
        let cols = FitColumns::from_observations(&sample(8));
        let _ = cols.run_moments(&[0.0; 4]);
    }

    #[test]
    fn score_columns_mirror_the_reference_loop() {
        let mut data = sample(40);
        data.push(obs(1e4, 1e4, 100.0, 0.0)); // unfittable: zero flow
        let phi = |o: &FlowObservation| o.origin_population * o.dest_population;
        let cols = ScoreColumns::build(&data, phi);
        assert_eq!(cols.len(), 40);
        assert!(!cols.is_empty());
        let mut acc = 0.0;
        let mut n = 0usize;
        for o in data.iter().filter(|o| o.fittable()) {
            let p = phi(o);
            if p > 0.0 && p.is_finite() {
                assert_eq!(
                    cols.dlog[n].to_bits(),
                    (o.observed_flow.log10() - p.log10()).to_bits()
                );
                acc += o.observed_flow.log10() - p.log10();
                n += 1;
            }
        }
        let (sum, used) = cols.intercept().unwrap();
        assert_eq!(sum.to_bits(), acc.to_bits());
        assert_eq!(used, n);
    }

    #[test]
    fn score_columns_are_thread_invariant() {
        // Over the MIN_PARALLEL threshold so the 8-thread run actually
        // shards; the column and intercept must not change.
        let data = sample(ScoreColumns::MIN_PARALLEL + 101);
        let phi = |o: &FlowObservation| o.origin_population / o.distance_km;
        let one = tweetmob_par::with_threads(1, || ScoreColumns::build(&data, phi));
        let eight = tweetmob_par::with_threads(8, || ScoreColumns::build(&data, phi));
        assert_eq!(one, eight);
        let (s1, n1) = one.intercept().unwrap();
        let (s8, n8) = eight.intercept().unwrap();
        assert_eq!(s1.to_bits(), s8.to_bits());
        assert_eq!(n1, n8);
    }

    #[test]
    fn score_columns_empty_when_nothing_usable() {
        let cols = ScoreColumns::build(&[obs(1e4, 1e4, 100.0, 0.0)], |_| 1.0);
        assert!(cols.is_empty());
        assert_eq!(cols.intercept(), None);
        // Usable flow but a non-finite structural factor is skipped too.
        let cols = ScoreColumns::build(&sample(5), |_| f64::NAN);
        assert!(cols.is_empty());
    }
}
