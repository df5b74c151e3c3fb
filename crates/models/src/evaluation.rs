//! Model scoring with the paper's Table-II metrics and extensions.

use crate::fitted::FittedModel;
use crate::traits::{FlowObservation, ModelError};
use std::fmt;
use tweetmob_obs::{Json, ToJson};
use tweetmob_stats::check::{debug_assert_finite, debug_assert_nonneg, debug_assert_prob};
use tweetmob_stats::correlation::{log_pearson, spearman};
use tweetmob_stats::metrics::{hit_rate, log_rmse, sorensen_index};

/// Scores of one model on one observation set.
///
/// `pearson` and `hit_rate_50` are the two Table-II metrics; the rest
/// answer the paper's future-work call for "more metrics".
#[derive(Debug, Clone)]
#[must_use = "an evaluation is pure data; dropping it discards the model's scores"]
pub struct ModelEvaluation {
    /// Model display name.
    pub model: &'static str,
    /// Pearson correlation of log-estimated vs log-observed flow — the
    /// appropriate reading of the paper's log-log Fig. 4 scatter.
    pub pearson: f64,
    /// Two-tailed p-value of `pearson`.
    pub pearson_p: f64,
    /// HitRate@50%: share of estimates within 50 % relative error.
    pub hit_rate_50: f64,
    /// RMSE of log10 flows ("error in decades").
    pub log_rmse: f64,
    /// Spearman rank correlation of raw flows.
    pub spearman: f64,
    /// Sørensen similarity (common part of commuters).
    pub sorensen: f64,
    /// Observation pairs scored.
    pub n_pairs: usize,
    /// Scoreable observations the model failed to predict (non-positive
    /// or non-finite prediction). Silent before; models that predicted
    /// nothing for half their pairs used to look identical to models
    /// that scored everything.
    pub n_dropped_predictions: usize,
}

impl ToJson for ModelEvaluation {
    fn to_json(&self) -> Json {
        Json::obj([
            ("model", self.model.into()),
            ("pearson", self.pearson.into()),
            ("pearson_p", self.pearson_p.into()),
            ("hit_rate_50", self.hit_rate_50.into()),
            ("log_rmse", self.log_rmse.into()),
            ("spearman", self.spearman.into()),
            ("sorensen", self.sorensen.into()),
            ("n_pairs", self.n_pairs.into()),
            ("n_dropped_predictions", self.n_dropped_predictions.into()),
        ])
    }
}

impl fmt::Display for ModelEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} r={:.3} hit@50%={:.3} logRMSE={:.3} ρ={:.3} SSI={:.3} (n={}, dropped={})",
            self.model,
            self.pearson,
            self.hit_rate_50,
            self.log_rmse,
            self.spearman,
            self.sorensen,
            self.n_pairs,
            self.n_dropped_predictions
        )
    }
}

/// Scores `model` against the observed flows, under the display name
/// `name` (the paper models' is [`ModelKind::name`](crate::ModelKind::name)).
///
/// Only observations with a positive observed flow enter the metrics
/// (pairs with zero observed flow cannot be scored by relative error or
/// log correlation; the fitted models never saw them either). Scoreable
/// observations the model fails to predict — non-positive or non-finite
/// prediction — are excluded from the metrics but **counted**: they show
/// up in [`ModelEvaluation::n_dropped_predictions`] and the
/// `evaluate/dropped_predictions` observability counter, so a model that
/// answers half its pairs no longer scores like one that answers all.
///
/// # Errors
///
/// [`ModelError::TooFewObservations`] when fewer than 3 scorable pairs
/// remain (Pearson needs 3).
pub fn evaluate<M: FittedModel + ?Sized>(
    name: &'static str,
    model: &M,
    observations: &[FlowObservation],
) -> Result<ModelEvaluation, ModelError> {
    let _span = tweetmob_obs::span!("evaluate");
    let mut est = Vec::with_capacity(observations.len());
    let mut obs = Vec::with_capacity(observations.len());
    for o in observations {
        if o.observed_flow > 0.0 && o.observed_flow.is_finite() {
            // Keep the raw prediction: evaluate_vectors owns the
            // drop accounting so both entry points count identically.
            est.push(model.predict_flow(o));
            obs.push(o.observed_flow);
        }
    }
    evaluate_vectors(name, &est, &obs)
}

/// Scores pre-computed prediction/observation vectors with the same
/// metric battery as [`evaluate`]. Used by models whose predictions are
/// matrix-shaped rather than a function of `(m, n, d, s)` — e.g. the
/// doubly-constrained IPF fit.
///
/// Pairs with an unusable *observation* (non-positive or non-finite)
/// are skipped silently — they can never be scored, whoever predicts.
/// Pairs with a usable observation but an unusable *estimate* are the
/// model's failure: they are skipped **and counted** in
/// [`ModelEvaluation::n_dropped_predictions`] plus the
/// `evaluate/dropped_predictions` counter.
///
/// # Errors
///
/// [`ModelError::TooFewObservations`] with fewer than 3 usable pairs;
/// [`ModelError::DegenerateFit`] when a metric is undefined (e.g.
/// constant flows).
pub fn evaluate_vectors(
    model: &'static str,
    estimated: &[f64],
    observed: &[f64],
) -> Result<ModelEvaluation, ModelError> {
    let mut est = Vec::with_capacity(estimated.len());
    let mut obs = Vec::with_capacity(observed.len());
    let mut n_dropped = 0usize;
    for (&e, &o) in estimated.iter().zip(observed) {
        if !o.is_finite() || o <= 0.0 {
            continue;
        }
        if e > 0.0 && e.is_finite() {
            est.push(e);
            obs.push(o);
        } else {
            n_dropped += 1;
        }
    }
    if n_dropped > 0 {
        tweetmob_obs::counter!("evaluate/dropped_predictions").add(n_dropped as u64);
    }
    if est.len() < 3 {
        return Err(ModelError::TooFewObservations {
            needed: 3,
            got: est.len(),
        });
    }
    let corr = log_pearson(&est, &obs)
        .map_err(|_| ModelError::DegenerateFit("log-pearson degenerate (constant flows?)"))?;
    let rho = spearman(&est, &obs).map(|c| c.r).unwrap_or(f64::NAN);
    // `pearson_p` and `spearman` keep their documented NaN sentinels;
    // everything else must come out finite and in range.
    Ok(ModelEvaluation {
        model,
        pearson: debug_assert_finite(corr.r, "evaluation pearson r"),
        pearson_p: corr.p_two_tailed,
        hit_rate_50: debug_assert_prob(
            hit_rate(&est, &obs, 0.5)
                .map_err(|_| ModelError::DegenerateFit("hit-rate undefined"))?,
            "evaluation hit rate",
        ),
        log_rmse: debug_assert_nonneg(
            log_rmse(&est, &obs).map_err(|_| ModelError::DegenerateFit("log-rmse undefined"))?,
            "evaluation log-RMSE",
        ),
        spearman: rho,
        sorensen: debug_assert_prob(
            sorensen_index(&est, &obs)
                .map_err(|_| ModelError::DegenerateFit("sorensen undefined"))?,
            "evaluation Sørensen index",
        ),
        n_pairs: est.len(),
        n_dropped_predictions: n_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::Gravity2Fit;

    fn obs(m: f64, n: f64, d: f64, t: f64) -> FlowObservation {
        FlowObservation {
            origin_population: m,
            dest_population: n,
            distance_km: d,
            intervening_population: 0.0,
            observed_flow: t,
        }
    }

    fn gravity_world(noise: impl Fn(usize) -> f64) -> Vec<FlowObservation> {
        let mut k = 3u64;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        (0..200)
            .map(|i| {
                let m = next(1e3, 1e6);
                let n = next(1e3, 1e6);
                let d = next(10.0, 2_000.0);
                obs(m, n, d, 0.01 * m * n / (d * d) * noise(i))
            })
            .collect()
    }

    #[test]
    fn perfect_model_scores_perfectly() {
        let data = gravity_world(|_| 1.0);
        let fit = Gravity2Fit::fit(&data).unwrap();
        let e = evaluate("Gravity 2Param", &fit, &data).unwrap();
        assert!(e.pearson > 0.999_999);
        assert_eq!(e.hit_rate_50, 1.0);
        assert!(e.log_rmse < 1e-6);
        assert!(e.sorensen > 0.999);
        assert_eq!(e.n_pairs, 200);
    }

    #[test]
    fn noise_degrades_scores_monotonically() {
        let noisy = gravity_world(|i| if i % 2 == 0 { 3.0 } else { 1.0 / 3.0 });
        let fit = Gravity2Fit::fit(&noisy).unwrap();
        let e = evaluate("Gravity 2Param", &fit, &noisy).unwrap();
        // 3x multiplicative noise → hit rate collapses, correlation holds.
        assert!(e.hit_rate_50 < 0.3, "hit rate {}", e.hit_rate_50);
        assert!(e.pearson > 0.9, "pearson {}", e.pearson);
        assert!(e.log_rmse > 0.4, "log rmse {}", e.log_rmse);
    }

    #[test]
    fn zero_flow_pairs_are_excluded() {
        let mut data = gravity_world(|_| 1.0);
        let n_before = data.len();
        data.push(obs(1e4, 1e4, 100.0, 0.0));
        let fit = Gravity2Fit::fit(&data).unwrap();
        let e = evaluate("Gravity 2Param", &fit, &data).unwrap();
        assert_eq!(e.n_pairs, n_before);
    }

    #[test]
    fn too_few_pairs_is_an_error() {
        let data = gravity_world(|_| 1.0);
        let fit = Gravity2Fit::fit(&data).unwrap();
        assert!(matches!(
            evaluate("Gravity 2Param", &fit, &data[..2]),
            Err(ModelError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn dropped_predictions_are_counted_not_silent() {
        // Two "models" scored on identical observations: one answers
        // every pair, the other emits unusable values for a third of
        // them. Before the fix both reported only their (different)
        // n_pairs, and the partial model's drops were invisible.
        let observed: Vec<f64> = (1..=30).map(|i| i as f64 * 10.0).collect();
        let full: Vec<f64> = observed.iter().map(|&o| o * 1.01).collect();
        let partial: Vec<f64> = observed
            .iter()
            .enumerate()
            .map(|(i, &o)| match i % 3 {
                0 => o * 1.01,
                1 if i == 1 => f64::NAN,
                1 => 0.0,
                _ => o * 0.99,
            })
            .collect();
        let before = tweetmob_obs::global()
            .counter_value("evaluate/dropped_predictions")
            .unwrap_or(0);
        let e_full = evaluate_vectors("Full", &full, &observed).unwrap();
        let e_partial = evaluate_vectors("Partial", &partial, &observed).unwrap();
        assert_eq!(e_full.n_dropped_predictions, 0);
        assert_eq!(e_full.n_pairs, 30);
        assert_eq!(e_partial.n_dropped_predictions, 10);
        assert_eq!(e_partial.n_pairs, 20);
        let after = tweetmob_obs::global()
            .counter_value("evaluate/dropped_predictions")
            .unwrap_or(0);
        assert!(after >= before + 10, "counter {before} -> {after}");
        assert!(e_partial.to_string().contains("dropped=10"));
    }

    #[test]
    fn bad_observations_are_skipped_without_blaming_the_model() {
        let observed = [10.0, f64::NAN, -5.0, 0.0, 20.0, 30.0];
        let est = [11.0, 1.0, 1.0, 1.0, 19.0, 31.0];
        let e = evaluate_vectors("Clean", &est, &observed).unwrap();
        assert_eq!(e.n_pairs, 3);
        assert_eq!(e.n_dropped_predictions, 0);
    }

    #[test]
    fn display_contains_metrics() {
        let data = gravity_world(|_| 1.0);
        let fit = Gravity2Fit::fit(&data).unwrap();
        let text = evaluate("Gravity 2Param", &fit, &data).unwrap().to_string();
        assert!(text.contains("Gravity 2Param"));
        assert!(text.contains("hit@50%"));
    }
}
