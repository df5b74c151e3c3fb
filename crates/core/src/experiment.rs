//! The end-to-end experiment runner.

use crate::areaset::{AreaSet, Scale};
use crate::odmatrix::OdMatrix;
use crate::population::{population_from_counts, PopulationCorrelation};
use crate::scan::{scan, AreaScan};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use tweetmob_data::{BundleArea, BundleMeta, ModelBundle, TweetDataset};
use tweetmob_models::{
    evaluate, FittedModelSet, FlowObservation, InterveningPopulation, ModelError, ModelEvaluation,
    ModelKind,
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
    /// The four fitted models.
    pub models: FittedModelSet,
    /// One score per model, in [`ModelKind::ALL`] order (the first
    /// three are the paper's Table II row).
    pub evaluations: [ModelEvaluation; 4],
}

impl MobilityReport {
    /// The evaluation of one model.
    pub fn evaluation(&self, kind: ModelKind) -> &ModelEvaluation {
        &self.evaluations[kind.index()]
    }
}

impl fmt::Display for MobilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} trips over {} nonzero pairs",
            self.label, self.od_total, self.nonzero_pairs
        )?;
        let (g4, g2) = (&self.models.gravity4, &self.models.gravity2);
        writeln!(
            f,
            "  {}: C={:.3e} α={:.2} β={:.2} γ={:.2} (R²={:.3})",
            ModelKind::Gravity4.name(),
            g4.c,
            g4.alpha,
            g4.beta,
            g4.gamma,
            g4.log_r_squared
        )?;
        writeln!(
            f,
            "  {}: C={:.3e} γ={:.2} (R²={:.3})",
            ModelKind::Gravity2.name(),
            g2.c,
            g2.gamma,
            g2.log_r_squared
        )?;
        writeln!(
            f,
            "  {}:      C={:.3e}",
            ModelKind::Radiation.name(),
            self.models.radiation.c
        )?;
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
/// paper's analyses as a method. Each area set it is asked about (a
/// paper scale at its own or a custom ε) is built and scanned once, on
/// first use, and kept, so construction builds nothing.
pub struct Experiment<'a> {
    dataset: &'a TweetDataset,
    scanned: Mutex<Vec<Arc<Scanned>>>,
}

/// One area set an [`Experiment`] was asked about, and its scan.
pub(crate) struct Scanned {
    scale: Scale,
    pub(crate) areas: AreaSet,
    pub(crate) scan: AreaScan,
}

impl<'a> Experiment<'a> {
    /// Wraps the dataset.
    pub fn new(dataset: &'a TweetDataset) -> Self {
        let scanned = Mutex::default();
        Self { dataset, scanned }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &TweetDataset {
        self.dataset
    }

    /// The areas of `scale` at `radius_km` and their scan, built and
    /// scanned on the first call for that pair.
    pub(crate) fn scanned(&self, scale: Scale, radius_km: f64) -> Arc<Scanned> {
        // An entry is pushed only once its scan is complete, so a panic
        // mid-scan leaves the list valid and a poisoned lock can be used.
        let mut scanned = self.scanned.lock().unwrap_or_else(PoisonError::into_inner);
        let key = |s: &&Arc<Scanned>| s.scale == scale && s.areas.radius_km() == radius_km;
        if let Some(s) = scanned.iter().find(key) {
            return Arc::clone(s);
        }
        let areas = AreaSet::of_scale_with_radius(scale, radius_km);
        let scan = scan(self.dataset, &areas);
        let s = Arc::new(Scanned { scale, areas, scan });
        scanned.push(Arc::clone(&s));
        s
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
        let s = self.scanned(scale, radius_km);
        Ok(population_from_counts(&s.areas, &s.scan.users)?)
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
    /// populations — the fit side of the fit-once / predict-many split —
    /// on the scale's kept scan.
    ///
    /// # Errors
    ///
    /// As [`Experiment::mobility`].
    pub fn fit(&self, scale: Scale) -> Result<(MobilityReport, ModelBundle), ExperimentError> {
        let s = self.scanned(scale, scale.search_radius_km());
        Self::fit_scanned(
            &s.areas,
            &s.scan,
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
        Self::fit_scanned(areas, &scan(self.dataset, areas), source, label)
    }

    /// [`Experiment::fit_with`] on a scan of `areas` already made.
    fn fit_scanned(
        areas: &AreaSet,
        scan: &AreaScan,
        source: PopulationSource,
        label: String,
    ) -> Result<(MobilityReport, ModelBundle), ExperimentError> {
        scan.publish();
        let od = &scan.od;
        let populations = match source {
            PopulationSource::Census => areas.census_populations(),
            PopulationSource::Twitter => population_from_counts(areas, &scan.users)?
                .areas
                .iter()
                .map(|a| a.twitter_users as f64)
                .collect(),
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
        let [g4, g2, radiation, opportunities] =
            ModelKind::ALL.map(|kind| evaluate(kind.name(), models.model(kind), &observations));
        let report = MobilityReport {
            label: label.clone(),
            od_total: od.total(),
            nonzero_pairs: od.nonzero_pairs(),
            observations,
            models,
            evaluations: [g4?, g2?, radiation?, opportunities?],
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
        assert!(report.models.gravity2.gamma > 0.5 && report.models.gravity2.gamma < 4.0);
        assert_eq!(report.evaluations.len(), 4);
        // Evaluations follow `ModelKind::ALL`, each under its kind's name.
        for (kind, e) in ModelKind::ALL.into_iter().zip(&report.evaluations) {
            assert_eq!(e.model, kind.name());
            assert!(std::ptr::eq(report.evaluation(kind), e));
        }
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
            let g2 = report.evaluation(ModelKind::Gravity2);
            let rad = report.evaluation(ModelKind::Radiation);
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
            let g2 = report.evaluation(ModelKind::Gravity2);
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
        use tweetmob_models::FittedModel;
        let exp = Experiment::new(medium());
        let (report, bundle) = exp.fit(Scale::National).unwrap();
        assert_eq!(bundle.len(), 20);
        assert_eq!(bundle.meta().population_source, "twitter");
        assert_eq!(bundle.models().gravity2, report.models.gravity2);
        let mut buf = Vec::new();
        bundle.save(&mut buf).unwrap();
        let loaded = ModelBundle::load(&buf[..]).unwrap();
        assert_eq!(loaded.models(), bundle.models());
        for (i, j) in [(0usize, 1usize), (3, 7), (19, 0)] {
            let obs = bundle.observation(i, j).unwrap();
            assert_eq!(
                loaded.predict(ModelKind::Gravity4, i, j).unwrap().to_bits(),
                report.models.gravity4.predict_flow(&obs).to_bits()
            );
            assert_eq!(
                loaded
                    .predict(ModelKind::Radiation, i, j)
                    .unwrap()
                    .to_bits(),
                report.models.radiation.predict_flow(&obs).to_bits()
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
        let g2 = report.evaluation(ModelKind::Gravity2);
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
