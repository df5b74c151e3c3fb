//! The shared observation type and the model-fitting error.

use std::fmt;

/// One origin–destination observation, ready for fitting or prediction.
///
/// Populations may come from any source — the paper fits against
/// Twitter-derived populations and proposes census populations as a
/// drop-in replacement (§IV closing paragraph); both are just values
/// here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowObservation {
    /// Population `m` of the origin area.
    pub origin_population: f64,
    /// Population `n` of the destination area.
    pub dest_population: f64,
    /// Great-circle distance `d` between the area centres, km.
    pub distance_km: f64,
    /// Population `s` within radius `d` of the origin, excluding origin
    /// and destination (used by Radiation and Opportunities; Gravity
    /// ignores it).
    pub intervening_population: f64,
    /// The observed flow `T` (e.g. consecutive-tweet transitions). Only
    /// used by fitting; prediction ignores it.
    pub observed_flow: f64,
}

impl FlowObservation {
    /// Whether the observation can enter a log-space fit: positive `m`,
    /// `n`, `d` and flow.
    pub fn fittable(&self) -> bool {
        self.origin_population > 0.0
            && self.dest_population > 0.0
            && self.distance_km > 0.0
            && self.observed_flow > 0.0
            && self.origin_population.is_finite()
            && self.dest_population.is_finite()
            && self.distance_km.is_finite()
            && self.observed_flow.is_finite()
            && self.intervening_population >= 0.0
    }
}

/// Errors from model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Fewer usable (positive, finite) observations than parameters.
    TooFewObservations {
        /// Observations required.
        needed: usize,
        /// Usable observations supplied.
        got: usize,
    },
    /// The underlying least-squares problem was singular (e.g. all
    /// observations share one distance).
    DegenerateFit(&'static str),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::TooFewObservations { needed, got } => {
                write!(f, "need at least {needed} fittable observations, got {got}")
            }
            ModelError::DegenerateFit(what) => write!(f, "degenerate fit: {what}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<tweetmob_stats::StatsError> for ModelError {
    /// Too few samples keeps its counts; every other regression failure
    /// is a singular log-space fit.
    fn from(e: tweetmob_stats::StatsError) -> Self {
        match e {
            tweetmob_stats::StatsError::TooFewSamples { needed, got } => {
                ModelError::TooFewObservations { needed, got }
            }
            _ => ModelError::DegenerateFit("singular log-space regression"),
        }
    }
}

/// The log-space intercept of a single-constant model `P = C · φ`:
/// `(mean of log₁₀ T − log₁₀ φ, n)` over the usable observations
/// (fittable, with a positive finite `φ`), summed serially in
/// observation order, so `C = 10^mean`.
///
/// # Errors
///
/// [`ModelError::TooFewObservations`] when no observation is usable.
pub(crate) fn log_intercept(
    observations: &[FlowObservation],
    phi: impl Fn(&FlowObservation) -> f64,
) -> Result<(f64, usize), ModelError> {
    let mut acc = 0.0;
    let mut n_used = 0usize;
    for o in observations.iter().filter(|o| o.fittable()) {
        let p = phi(o);
        if p > 0.0 && p.is_finite() {
            acc += o.observed_flow.log10() - p.log10();
            n_used += 1;
        }
    }
    if n_used == 0 {
        return Err(ModelError::TooFewObservations { needed: 1, got: 0 });
    }
    Ok((acc / n_used as f64, n_used))
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

    #[test]
    fn fittable_requires_all_positive() {
        assert!(obs(1.0, 1.0, 1.0, 0.0, 1.0).fittable());
        assert!(!obs(0.0, 1.0, 1.0, 0.0, 1.0).fittable());
        assert!(!obs(1.0, 0.0, 1.0, 0.0, 1.0).fittable());
        assert!(!obs(1.0, 1.0, 0.0, 0.0, 1.0).fittable());
        assert!(!obs(1.0, 1.0, 1.0, 0.0, 0.0).fittable());
        assert!(!obs(1.0, 1.0, 1.0, -1.0, 1.0).fittable());
        assert!(!obs(f64::NAN, 1.0, 1.0, 0.0, 1.0).fittable());
        assert!(!obs(1.0, 1.0, f64::INFINITY, 0.0, 1.0).fittable());
    }

    #[test]
    fn error_display() {
        let e = ModelError::TooFewObservations { needed: 4, got: 1 };
        assert!(e.to_string().contains("4"));
        let e = ModelError::DegenerateFit("collinear");
        assert!(e.to_string().contains("collinear"));
    }
}
