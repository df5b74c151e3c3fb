//! The end-to-end experiment runner.

use crate::areaset::{AreaSet, Scale};
use crate::odmatrix::OdMatrix;
use crate::population::{estimate_population, population_from_counts, PopulationCorrelation};
use crate::trips::trips_scan;
use std::fmt;
use std::sync::Arc;
use tweetmob_data::{BundleArea, BundleMeta, ModelBundle, TweetDataset};
use tweetmob_models::{
    evaluate, FittedModelSet, FlowObservation, Gravity2Fit, Gravity4Fit, InterveningPopulation,
    ModelError, ModelEvaluation, OpportunitiesFit, RadiationFit,
};
use tweetmob_stats::StatsError;

/// Which population vector feeds the mobility models' `m`, `n`, `s`.
///
/// The paper fits against Twitter-derived populations and proposes the
/// census swap as future work ("by replacing m and n with the population
/// from census, it is feasible to estimate the real-world mobility");
/// both paths are first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationSource {
    /// Unique Twitter users within ε of each centre (the paper's fits).
    Twitter,
    /// Gazetteer census populations (the paper's future-work proposal).
    Census,
}

impl PopulationSource {
    /// Stable lowercase key, as recorded in artifact bundles and
    /// accepted by the CLI (`"twitter"` / `"census"`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            PopulationSource::Twitter => "twitter",
            PopulationSource::Census => "census",
        }
    }

    /// Parses the stable key back (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("twitter") {
            Some(PopulationSource::Twitter)
        } else if s.eq_ignore_ascii_case("census") {
            Some(PopulationSource::Census)
        } else {
            None
        }
    }
}

/// Everything the mobility experiment produces for one area set: the
/// extracted observations, the four fitted models, and their scores.
#[derive(Debug, Clone)]
pub struct MobilityReport {
    /// Scale or area-set label.
    pub label: String,
    /// One observation per ordered area pair (zero-flow pairs included —
    /// fitting and evaluation skip them internally).
    pub observations: Vec<FlowObservation>,
    /// Total trips extracted.
    pub od_total: u64,
    /// Ordered pairs with at least one trip.
    pub nonzero_pairs: usize,
    /// Fitted 4-parameter gravity model (Eq. 1).
    pub gravity4: Gravity4Fit,
    /// Fitted 2-parameter gravity model (Eq. 2).
    pub gravity2: Gravity2Fit,
    /// Fitted radiation model (Eq. 3).
    pub radiation: RadiationFit,
    /// Fitted intervening-opportunities model (extension).
    pub opportunities: OpportunitiesFit,
    /// Scores, in the order gravity4, gravity2, radiation, opportunities
    /// (the first three are the paper's Table II row).
    pub evaluations: Vec<ModelEvaluation>,
}

impl MobilityReport {
    /// The evaluation of a model by display name, if present.
    pub fn evaluation(&self, name: &str) -> Option<&ModelEvaluation> {
        self.evaluations.iter().find(|e| e.model == name)
    }
}

impl fmt::Display for MobilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} trips over {} nonzero pairs",
            self.label, self.od_total, self.nonzero_pairs
        )?;
        writeln!(
            f,
            "  Gravity 4Param: C={:.3e} α={:.2} β={:.2} γ={:.2} (R²={:.3})",
            self.gravity4.c,
            self.gravity4.alpha,
            self.gravity4.beta,
            self.gravity4.gamma,
            self.gravity4.log_r_squared
        )?;
        writeln!(
            f,
            "  Gravity 2Param: C={:.3e} γ={:.2} (R²={:.3})",
            self.gravity2.c, self.gravity2.gamma, self.gravity2.log_r_squared
        )?;
        writeln!(f, "  Radiation:      C={:.3e}", self.radiation.c)?;
        for e in &self.evaluations {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Errors from the experiment runner.
#[derive(Debug)]
pub enum ExperimentError {
    /// A statistics routine failed (degenerate population data, …).
    Stats(StatsError),
    /// A model fit failed (too few trips at this scale, …).
    Model(ModelError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Stats(e) => write!(f, "statistics failure: {e}"),
            ExperimentError::Model(e) => write!(f, "model failure: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<StatsError> for ExperimentError {
    fn from(e: StatsError) -> Self {
        ExperimentError::Stats(e)
    }
}

impl From<ModelError> for ExperimentError {
    fn from(e: ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

/// The experiment runner: borrows a dataset and exposes each of the
/// paper's analyses as a method. Every analysis is one columnar scan of
/// the dataset, so construction builds nothing.
pub struct Experiment<'a> {
    dataset: &'a TweetDataset,
}

impl<'a> Experiment<'a> {
    /// Wraps the dataset.
    pub fn new(dataset: &'a TweetDataset) -> Self {
        Self { dataset }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &TweetDataset {
        self.dataset
    }

    /// Fig. 3: population correlation at one scale with its canonical ε.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Stats`] when the correlation is degenerate
    /// (e.g. no users found anywhere).
    pub fn population_correlation(
        &self,
        scale: Scale,
    ) -> Result<PopulationCorrelation, ExperimentError> {
        self.population_correlation_with_radius(scale, scale.search_radius_km())
    }

    /// Fig. 3(b) and the radius-sensitivity ablation: population
    /// correlation at a scale with a custom ε.
    ///
    /// # Errors
    ///
    /// As [`Experiment::population_correlation`].
    pub fn population_correlation_with_radius(
        &self,
        scale: Scale,
        radius_km: f64,
    ) -> Result<PopulationCorrelation, ExperimentError> {
        let areas = AreaSet::of_scale_with_radius(scale, radius_km);
        Ok(estimate_population(self.dataset, &areas)?)
    }

    /// §IV: mobility extraction + model fitting at one scale, using
    /// Twitter-derived populations (the paper's configuration).
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Model`] when a model cannot be fitted (too few
    /// trips).
    pub fn mobility(&self, scale: Scale) -> Result<MobilityReport, ExperimentError> {
        self.fit(scale).map(|(report, _)| report)
    }

    /// [`Experiment::fit_with`] at a paper scale with Twitter-derived
    /// populations — the fit side of the fit-once / predict-many split.
    ///
    /// # Errors
    ///
    /// As [`Experiment::mobility`].
    pub fn fit(&self, scale: Scale) -> Result<(MobilityReport, ModelBundle), ExperimentError> {
        self.fit_with(
            &AreaSet::of_scale(scale),
            PopulationSource::Twitter,
            scale.name().to_string(),
        )
    }

    /// Mobility fitting that also assembles the persistable
    /// [`ModelBundle`]. One scan of the dataset yields the OD matrix,
    /// the `trips/*` funnel counters (published once per fit) and the
    /// Twitter populations. The bundle holds the four fitted artifacts,
    /// the area metadata and population vector they were fitted
    /// against, and the shared pairwise geometry (an [`Arc`] clone of
    /// the area set's cache, so saving an artifact adds no geometry
    /// rebuild). Predictions made through the bundle are bit-identical
    /// to predicting with the report's fits directly.
    ///
    /// # Errors
    ///
    /// As [`Experiment::mobility`].
    pub fn fit_with(
        &self,
        areas: &AreaSet,
        source: PopulationSource,
        label: String,
    ) -> Result<(MobilityReport, ModelBundle), ExperimentError> {
        let scan = trips_scan(self.dataset, areas);
        let od = &scan.od;
        let populations = match source {
            PopulationSource::Census => areas.census_populations(),
            PopulationSource::Twitter => {
                let _span = tweetmob_obs::span!("population");
                population_from_counts(areas, &scan.users)?
                    .areas
                    .iter()
                    .map(|a| a.twitter_users as f64)
                    .collect()
            }
        };
        let observations = {
            let _span = tweetmob_obs::span!("odmatrix");
            tweetmob_obs::gauge!("odmatrix/cells")
                .set(i64::try_from(areas.len() * areas.len()).unwrap_or(i64::MAX));
            tweetmob_obs::gauge!("odmatrix/nonzero_pairs")
                .set(i64::try_from(od.nonzero_pairs()).unwrap_or(i64::MAX));
            build_observations(areas, &populations, od)
        };
        let models = FittedModelSet::fit(&observations)?;
        let evaluations = vec![
            evaluate(&models.gravity4, &observations)?,
            evaluate(&models.gravity2, &observations)?,
            evaluate(&models.radiation, &observations)?,
            evaluate(&models.opportunities, &observations)?,
        ];
        let report = MobilityReport {
            label: label.clone(),
            od_total: od.total(),
            nonzero_pairs: od.nonzero_pairs(),
            observations,
            gravity4: models.gravity4,
            gravity2: models.gravity2,
            radiation: models.radiation,
            opportunities: models.opportunities,
            evaluations,
        };
        let bundle = ModelBundle::new(
            BundleMeta {
                label,
                population_source: source.key().to_string(),
                radius_km: areas.radius_km(),
            },
            areas
                .areas()
                .iter()
                .map(|a| BundleArea {
                    name: a.name.to_string(),
                    center: a.center,
                    census_population: a.population as f64,
                })
                .collect(),
            populations,
            models,
            Arc::clone(areas.geometry()),
        );
        Ok((report, bundle))
    }
}

/// Assembles `FlowObservation`s for every ordered pair of areas: `m`, `n`
/// from `populations`, `d` from centre distances, `s` from the
/// intervening-population structure over the same population vector, `T`
/// from the OD matrix. Distances and rank lists come from the area set's
/// shared [`PairGeometry`](tweetmob_geo::PairGeometry).
fn build_observations(areas: &AreaSet, populations: &[f64], od: &OdMatrix) -> Vec<FlowObservation> {
    use tweetmob_stats::check::{debug_assert_finite_slice, debug_assert_nonneg};
    // This is where integer OD counts and estimated populations become
    // the floats every downstream fit consumes — the last place a NaN or
    // negative estimate can be caught near its source.
    debug_assert_finite_slice(populations, "area populations");
    let intervening =
        InterveningPopulation::from_geometry(Arc::clone(areas.geometry()), populations);
    od.iter_pairs()
        .map(|(i, j, count)| FlowObservation {
            origin_population: debug_assert_nonneg(populations[i], "origin population"),
            dest_population: debug_assert_nonneg(populations[j], "destination population"),
            distance_km: debug_assert_nonneg(areas.distance_km(i, j), "pair distance"),
            intervening_population: debug_assert_nonneg(
                intervening.s(i, j),
                "intervening population",
            ),
            observed_flow: count as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PooledPopulation;
    use std::sync::OnceLock;
    use tweetmob_synth::{GeneratorConfig, TweetGenerator};

    /// One shared medium dataset for the expensive end-to-end tests.
    fn medium() -> &'static TweetDataset {
        static DS: OnceLock<TweetDataset> = OnceLock::new();
        DS.get_or_init(|| TweetGenerator::new(GeneratorConfig::default()).generate())
    }

    #[test]
    fn population_correlation_strong_at_national_scale() {
        let exp = Experiment::new(medium());
        let pop = exp.population_correlation(Scale::National).unwrap();
        assert_eq!(pop.areas.len(), 20);
        assert!(
            pop.correlation.r > 0.8,
            "national population r = {}",
            pop.correlation.r
        );
        assert!(pop.correlation.p_two_tailed < 1e-4);
        // Sydney must dominate the counts.
        let sydney = &pop.areas[0];
        assert!(pop
            .areas
            .iter()
            .all(|a| a.twitter_users <= sydney.twitter_users));
    }

    #[test]
    fn pooled_population_matches_paper_shape() {
        let exp = Experiment::new(medium());
        let per_scale = Scale::ALL.map(|s| exp.population_correlation(s).unwrap());
        let pooled = PooledPopulation::of(per_scale.into()).unwrap();
        assert_eq!(pooled.pooled.n, 60, "paper pools 60 samples");
        assert!(
            pooled.pooled.r > 0.7,
            "pooled r = {} (paper: 0.816)",
            pooled.pooled.r
        );
        assert!(pooled.pooled.p_two_tailed < 1e-8);
    }

    #[test]
    fn metro_correlation_degrades_at_tiny_radius() {
        // Fig. 3(b): shrinking ε from 2 km to 0.5 km increases error.
        let exp = Experiment::new(medium());
        let normal = exp
            .population_correlation_with_radius(Scale::Metropolitan, 2.0)
            .unwrap();
        let tiny = exp
            .population_correlation_with_radius(Scale::Metropolitan, 0.5)
            .unwrap();
        // The tiny radius sees far fewer users.
        let users_normal: u64 = normal.areas.iter().map(|a| a.twitter_users).sum();
        let users_tiny: u64 = tiny.areas.iter().map(|a| a.twitter_users).sum();
        assert!(
            users_tiny * 2 < users_normal,
            "tiny {users_tiny} vs normal {users_normal}"
        );
    }

    #[test]
    fn mobility_report_fits_all_models() {
        let exp = Experiment::new(medium());
        let report = exp.mobility(Scale::National).unwrap();
        assert!(report.od_total > 100, "od total {}", report.od_total);
        assert_eq!(report.observations.len(), 380); // 20·19 ordered pairs
        assert!(report.gravity2.gamma > 0.5 && report.gravity2.gamma < 4.0);
        assert_eq!(report.evaluations.len(), 4);
        assert!(report.evaluation("Radiation").is_some());
    }

    #[test]
    fn gravity_beats_radiation_at_every_scale() {
        // The paper's headline finding (Table II): Gravity outperforms
        // Radiation in Australia. Pearson ordering holds scale by scale;
        // hit rates are compared via Gravity 4Param (the paper's national
        // gravity-vs-radiation hit-rate gap narrows in our smaller
        // sample, so the 2-param margin there is within noise).
        let exp = Experiment::new(medium());
        let mut g2_hits = 0.0;
        let mut rad_hits = 0.0;
        for scale in Scale::ALL {
            let report = exp.mobility(scale).unwrap();
            let g2 = report.evaluation("Gravity 2Param").unwrap();
            let rad = report.evaluation("Radiation").unwrap();
            assert!(
                g2.pearson > rad.pearson,
                "{}: gravity r = {} vs radiation r = {}",
                scale.name(),
                g2.pearson,
                rad.pearson
            );
            g2_hits += g2.hit_rate_50;
            rad_hits += rad.hit_rate_50;
        }
        assert!(
            g2_hits > rad_hits,
            "mean gravity2 hit {} vs radiation {}",
            g2_hits / 3.0,
            rad_hits / 3.0
        );
    }

    #[test]
    fn mobility_at_every_scale_produces_table_two() {
        let exp = Experiment::new(medium());
        for scale in Scale::ALL {
            let report = exp.mobility(scale).unwrap();
            assert_eq!(report.label, scale.name());
            let g2 = report.evaluation("Gravity 2Param").unwrap();
            assert!(
                g2.pearson > 0.5,
                "{}: gravity r = {}",
                scale.name(),
                g2.pearson
            );
        }
    }

    #[test]
    fn fit_bundle_round_trips_and_bit_matches_report() {
        use tweetmob_models::{FittedModel, ModelKind};
        let exp = Experiment::new(medium());
        let (report, bundle) = exp.fit(Scale::National).unwrap();
        assert_eq!(bundle.len(), 20);
        assert_eq!(bundle.meta().population_source, "twitter");
        assert_eq!(bundle.models().gravity2, report.gravity2);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let loaded = ModelBundle::load(&buf[..]).unwrap();
        assert_eq!(loaded.models(), bundle.models());
        for (i, j) in [(0usize, 1usize), (3, 7), (19, 0)] {
            let obs = bundle.observation(i, j).unwrap();
            assert_eq!(
                loaded.predict(ModelKind::Gravity4, i, j).unwrap().to_bits(),
                report.gravity4.predict_flow(&obs).to_bits()
            );
            assert_eq!(
                loaded
                    .predict(ModelKind::Radiation, i, j)
                    .unwrap()
                    .to_bits(),
                report.radiation.predict_flow(&obs).to_bits()
            );
        }
    }

    #[test]
    fn population_source_keys_round_trip() {
        for source in [PopulationSource::Twitter, PopulationSource::Census] {
            assert_eq!(PopulationSource::parse(source.key()), Some(source));
        }
        assert_eq!(
            PopulationSource::parse("CENSUS"),
            Some(PopulationSource::Census)
        );
        assert_eq!(PopulationSource::parse("lidar"), None);
    }

    #[test]
    fn census_population_source_also_fits() {
        let exp = Experiment::new(medium());
        let (report, _) = exp
            .fit_with(
                &AreaSet::of_scale(Scale::National),
                PopulationSource::Census,
                "census".into(),
            )
            .unwrap();
        let g2 = report.evaluation("Gravity 2Param").unwrap();
        assert!(g2.pearson > 0.5, "census-fed gravity r = {}", g2.pearson);
    }

    #[test]
    fn report_display_is_readable() {
        let exp = Experiment::new(medium());
        let text = exp.mobility(Scale::National).unwrap().to_string();
        assert!(text.contains("Gravity 4Param"));
        assert!(text.contains("Radiation"));
        assert!(text.contains("trips"));
    }
}
