//! Model-family ablations beyond the paper's three models (DESIGN.md
//! §6 and the paper's future work: "evaluate model performances with
//! more metrics and at more varieties of distances scales").
//!
//! Runs on an existing [`MobilityReport`] — no re-extraction — and adds:
//!
//! * **exponential-deterrence gravity** (`exp(−d/κ)`) and the **Tanner**
//!   combination (`d^−γ·e^{−d/κ}`): which decay family do the flows
//!   follow, and does it change across the paper's three scales?
//! * **doubly-constrained gravity (IPF)**: how much Table-II error is
//!   just unbalanced marginals?

use crate::experiment::MobilityReport;
use tweetmob_models::{
    evaluate, evaluate_vectors, DoublyConstrainedFit, GravityExpFit, ModelError, ModelEvaluation,
    TannerFit,
};

/// The extended model comparison for one scale.
#[derive(Debug)]
pub struct DeterrenceAblation {
    /// Exponential-deterrence gravity fit and score.
    pub gravity_exp: Result<(GravityExpFit, ModelEvaluation), ModelError>,
    /// Tanner (power × exponential) fit and score.
    pub tanner: Result<(TannerFit, ModelEvaluation), ModelError>,
    /// Doubly-constrained IPF score (seeded with the report's fitted
    /// `γ`), plus the sweep count it took to converge.
    pub ipf: Result<(usize, ModelEvaluation), ModelError>,
}

impl DeterrenceAblation {
    /// Every successful evaluation, for table printing.
    pub fn evaluations(&self) -> Vec<&ModelEvaluation> {
        let mut out = Vec::new();
        if let Ok((_, e)) = &self.gravity_exp {
            out.push(e);
        }
        if let Ok((_, e)) = &self.tanner {
            out.push(e);
        }
        if let Ok((_, e)) = &self.ipf {
            out.push(e);
        }
        out
    }
}

/// Number of areas implied by a full ordered-pair observation list
/// (`len = n(n−1)`).
#[expect(
    clippy::cast_possible_truncation,
    reason = "the rounded root is an area count, a few dozen at most"
)]
fn n_areas_of(report: &MobilityReport) -> usize {
    let len = report.observations.len() as f64;
    ((1.0 + (1.0 + 4.0 * len).sqrt()) / 2.0).round() as usize
}

/// Runs the ablation on a finished mobility report.
pub fn deterrence_ablation(report: &MobilityReport) -> DeterrenceAblation {
    let gravity_exp = GravityExpFit::fit(&report.observations)
        .and_then(|fit| evaluate("Gravity Exp", &fit, &report.observations).map(|e| (fit, e)));
    let tanner = TannerFit::fit(&report.observations)
        .and_then(|fit| evaluate("Gravity Tanner", &fit, &report.observations).map(|e| (fit, e)));

    // Rebuild the OD and distance matrices from the observation list
    // (which enumerates ordered pairs in row-major order, diagonal
    // skipped — the shape `OdMatrix::iter_pairs` produces).
    let n = n_areas_of(report);
    let ipf = if n * (n - 1) == report.observations.len() {
        let mut observed = vec![0.0; n * n];
        let mut distances = vec![0.0; n * n];
        let mut k = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                observed[i * n + j] = report.observations[k].observed_flow;
                distances[i * n + j] = report.observations[k].distance_km;
                k += 1;
            }
        }
        match DoublyConstrainedFit::fit(n, &observed, &distances, report.models.gravity2.gamma) {
            Ok(fit) => {
                // Score only off-diagonal pairs, matching the others.
                let mut est = Vec::with_capacity(n * (n - 1));
                let mut obs = Vec::with_capacity(n * (n - 1));
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            est.push(fit.predict(i, j));
                            obs.push(observed[i * n + j]);
                        }
                    }
                }
                evaluate_vectors("Gravity IPF", &est, &obs).map(|e| (fit.iterations, e))
            }
            Err(_) => Err(ModelError::DegenerateFit("IPF failed to converge")),
        }
    } else {
        Err(ModelError::DegenerateFit(
            "observation list is not a full ordered-pair enumeration",
        ))
    };

    DeterrenceAblation {
        gravity_exp,
        tanner,
        ipf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areaset::Scale;
    use crate::experiment::Experiment;
    use std::sync::OnceLock;
    use tweetmob_data::TweetDataset;
    use tweetmob_models::ModelKind;
    use tweetmob_synth::{GeneratorConfig, TweetGenerator};

    fn medium() -> &'static TweetDataset {
        static DS: OnceLock<TweetDataset> = OnceLock::new();
        DS.get_or_init(|| TweetGenerator::new(GeneratorConfig::default()).generate())
    }

    #[test]
    fn ablation_runs_on_national_scale() {
        let exp = Experiment::new(medium());
        let report = exp.mobility(Scale::National).unwrap();
        let ab = deterrence_ablation(&report);
        // Tanner nests both deterrence families, so it must fit at least
        // as well (in R² terms) as the pure power law.
        let (tanner_fit, tanner_eval) = ab.tanner.as_ref().expect("tanner fits");
        assert!(
            tanner_fit.log_r_squared >= report.models.gravity2.log_r_squared - 1e-9,
            "tanner R² {} < gravity2 R² {}",
            tanner_fit.log_r_squared,
            report.models.gravity2.log_r_squared
        );
        assert!(tanner_eval.pearson > 0.5);
        // IPF matches marginals, so its Sørensen index (common part of
        // commuters) must beat the unconstrained gravity's.
        let (_iters, ipf_eval) = ab.ipf.as_ref().expect("ipf converges");
        let g2_eval = report.evaluation(ModelKind::Gravity2);
        assert!(
            ipf_eval.sorensen > g2_eval.sorensen,
            "ipf SSI {} vs g2 SSI {}",
            ipf_eval.sorensen,
            g2_eval.sorensen
        );
    }

    #[test]
    fn ablation_exposes_all_three_when_fittable() {
        let exp = Experiment::new(medium());
        let report = exp.mobility(Scale::State).unwrap();
        let ab = deterrence_ablation(&report);
        let evals = ab.evaluations();
        // Exponential may legitimately fail on some data; the other two
        // must be present.
        assert!(evals.len() >= 2, "got {} evaluations", evals.len());
        assert!(ab.tanner.is_ok());
        assert!(ab.ipf.is_ok());
    }

    #[test]
    fn n_areas_inversion() {
        let exp = Experiment::new(medium());
        let report = exp.mobility(Scale::National).unwrap();
        assert_eq!(n_areas_of(&report), 20);
    }
}
