//! Patch populations and per-capita migration rates.

use std::fmt;
use std::sync::Arc;
use tweetmob_data::ModelBundle;
use tweetmob_models::{FittedModel, FlowObservation, InterveningPopulation, ModelKind};

/// Errors building a mobility network.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// A population was zero, negative or non-finite.
    BadPopulation {
        /// Patch index.
        patch: usize,
        /// Offending value.
        value: f64,
    },
    /// A flow referenced an out-of-range patch or was negative.
    BadFlow(&'static str),
    /// The leave-rate must be in `[0, 1)` per unit time step scale.
    BadLeaveRate(f64),
    /// The network needs at least one patch.
    Empty,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BadPopulation { patch, value } => {
                write!(f, "patch {patch} has invalid population {value}")
            }
            NetworkError::BadFlow(what) => write!(f, "invalid flow: {what}"),
            NetworkError::BadLeaveRate(v) => {
                write!(f, "leave rate {v} outside [0, 1)")
            }
            NetworkError::Empty => write!(f, "network needs at least one patch"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A metapopulation network: patch populations plus per-capita daily
/// migration rates `m[i→j]`.
///
/// Rates are derived from relative flows: each patch's total daily
/// leave-rate is `leave_rate`, split across destinations in proportion to
/// the supplied (or model-predicted) flows. This matches the standard
/// metapopulation reading of an OD matrix — the *shape* of the flows
/// matters; the overall mobility level is one interpretable knob.
#[derive(Debug, Clone)]
pub struct MobilityNetwork {
    populations: Vec<f64>,
    /// Row-major `rates[i·n + j]`: per-capita rate of moving i → j per
    /// day. Diagonal entries are zero.
    rates: Vec<f64>,
}

impl MobilityNetwork {
    /// Builds a network from explicit directed flows
    /// `(origin, dest, flow)`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::Empty`] — no patches.
    /// * [`NetworkError::BadPopulation`] — non-positive population.
    /// * [`NetworkError::BadFlow`] — negative flow or index out of range.
    /// * [`NetworkError::BadLeaveRate`] — `leave_rate` outside `[0, 1)`.
    pub fn from_flows(
        populations: Vec<f64>,
        flows: &[(usize, usize, f64)],
        leave_rate: f64,
    ) -> Result<Self, NetworkError> {
        if populations.is_empty() {
            return Err(NetworkError::Empty);
        }
        for (i, &p) in populations.iter().enumerate() {
            if !(p > 0.0) || !p.is_finite() {
                return Err(NetworkError::BadPopulation { patch: i, value: p });
            }
        }
        if !(0.0..1.0).contains(&leave_rate) {
            return Err(NetworkError::BadLeaveRate(leave_rate));
        }
        let n = populations.len();
        let mut weights = vec![0.0; n * n];
        for &(i, j, w) in flows {
            if i >= n || j >= n {
                return Err(NetworkError::BadFlow("patch index out of range"));
            }
            if i == j {
                return Err(NetworkError::BadFlow("self-flow"));
            }
            if !(w >= 0.0) || !w.is_finite() {
                return Err(NetworkError::BadFlow("negative or non-finite flow"));
            }
            weights[i * n + j] += w;
        }
        // Normalise each row to the leave rate.
        let mut rates = vec![0.0; n * n];
        for i in 0..n {
            let row_sum: f64 = weights[i * n..(i + 1) * n].iter().sum();
            if row_sum > 0.0 {
                for j in 0..n {
                    rates[i * n + j] = leave_rate * weights[i * n + j] / row_sum;
                }
            }
        }
        Ok(Self { populations, rates })
    }

    /// Builds a network by predicting every pairwise flow with a fitted
    /// mobility model. The intervening-population structure supplies
    /// the patch populations (the model's `m` and `n`, and the network's
    /// populations), the pair distances `d` from its shared
    /// [`InterveningPopulation::geometry`], and `s`.
    ///
    /// # Errors
    ///
    /// As [`MobilityNetwork::from_flows`].
    pub fn from_model<M: FittedModel + ?Sized>(
        model: &M,
        intervening: &InterveningPopulation,
        leave_rate: f64,
    ) -> Result<Self, NetworkError> {
        let populations = intervening.populations();
        let geometry = intervening.geometry();
        let n = populations.len();
        let mut flows = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let obs = FlowObservation {
                    origin_population: populations[i],
                    dest_population: populations[j],
                    distance_km: geometry.distance(i, j),
                    intervening_population: intervening.s(i, j),
                    observed_flow: 0.0,
                };
                let p = model.predict_flow(&obs);
                if p.is_finite() && p > 0.0 {
                    flows.push((i, j, p));
                }
            }
        }
        Self::from_flows(populations.to_vec(), &flows, leave_rate)
    }

    /// Builds the network straight from a loaded model-artifact bundle:
    /// [`MobilityNetwork::from_model`] with the chosen fitted model over
    /// the bundle's census populations and shared geometry. The
    /// intervening-population structure is rebuilt over the census
    /// vector, because the bundle's own rankings cover its *fitting*
    /// populations.
    ///
    /// # Errors
    ///
    /// As [`MobilityNetwork::from_flows`].
    pub fn from_artifact(
        bundle: &ModelBundle,
        kind: ModelKind,
        leave_rate: f64,
    ) -> Result<Self, NetworkError> {
        let census: Vec<f64> = bundle.areas().iter().map(|a| a.census_population).collect();
        let intervening =
            InterveningPopulation::from_geometry(Arc::clone(bundle.geometry()), &census);
        Self::from_model(bundle.models().model(kind), &intervening, leave_rate)
    }

    /// Number of patches.
    #[inline]
    pub fn n_patches(&self) -> usize {
        self.populations.len()
    }

    /// Patch populations.
    #[inline]
    pub fn populations(&self) -> &[f64] {
        &self.populations
    }

    /// Per-capita daily migration rate i → j.
    ///
    /// # Panics
    ///
    /// If an index is out of range.
    #[inline]
    pub fn rate(&self, i: usize, j: usize) -> f64 {
        let n = self.n_patches();
        assert!(i < n && j < n, "patch index out of range");
        self.rates[i * n + j]
    }

    /// Total per-capita leave rate of patch `i`.
    pub(crate) fn leave_rate(&self, i: usize) -> f64 {
        let n = self.n_patches();
        assert!(i < n, "patch index out of range");
        self.rates[i * n..(i + 1) * n].iter().sum()
    }

    /// The nonzero migration rates, each multiplied by `factor` (1 for
    /// the network as it is, less under a travel restriction), as the
    /// compressed rows both engines step over.
    pub(crate) fn edges(&self, factor: f64) -> Edges {
        let n = self.n_patches();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        row_start.push(0);
        for (i, row) in self.rates.chunks_exact(n).enumerate() {
            for (j, &rate) in row.iter().enumerate() {
                let m = rate * factor;
                if j != i && m != 0.0 {
                    edges.push((j, m));
                }
            }
            row_start.push(edges.len());
        }
        Edges { row_start, edges }
    }
}

/// The nonzero off-diagonal migration rates of a network as compressed
/// rows: row `i` lists `(j, mᵢⱼ)` in ascending `j`, and a rate that is
/// zero, or becomes zero under a restriction, has no edge. The engines'
/// results depend on that order to the last bit.
#[derive(Debug, Clone)]
pub(crate) struct Edges {
    /// Row `i` is `edges[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    edges: Vec<(usize, f64)>,
}

impl Edges {
    /// The rows in origin order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[(usize, f64)]> {
        self.row_start.windows(2).map(|w| &self.edges[w[0]..w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_normalised_to_leave_rate() {
        let net = MobilityNetwork::from_flows(
            vec![1_000.0, 2_000.0, 500.0],
            &[(0, 1, 30.0), (0, 2, 10.0), (1, 0, 5.0)],
            0.08,
        )
        .unwrap();
        assert!((net.leave_rate(0) - 0.08).abs() < 1e-12);
        assert!((net.rate(0, 1) - 0.06).abs() < 1e-12); // 30/40 of 0.08
        assert!((net.rate(0, 2) - 0.02).abs() < 1e-12);
        assert!((net.leave_rate(1) - 0.08).abs() < 1e-12);
        assert_eq!(net.leave_rate(2), 0.0); // no outgoing flows
        assert_eq!(net.rate(1, 2), 0.0);
    }

    #[test]
    fn duplicate_flows_accumulate() {
        let net = MobilityNetwork::from_flows(
            vec![100.0, 100.0, 100.0],
            &[(0, 1, 1.0), (0, 1, 1.0), (0, 2, 2.0)],
            0.1,
        )
        .unwrap();
        assert!((net.rate(0, 1) - 0.05).abs() < 1e-12);
        assert!((net.rate(0, 2) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            MobilityNetwork::from_flows(vec![], &[], 0.1),
            Err(NetworkError::Empty)
        ));
        assert!(matches!(
            MobilityNetwork::from_flows(vec![0.0], &[], 0.1),
            Err(NetworkError::BadPopulation { patch: 0, .. })
        ));
        assert!(matches!(
            MobilityNetwork::from_flows(vec![1.0, 1.0], &[(0, 5, 1.0)], 0.1),
            Err(NetworkError::BadFlow(_))
        ));
        assert!(matches!(
            MobilityNetwork::from_flows(vec![1.0, 1.0], &[(0, 0, 1.0)], 0.1),
            Err(NetworkError::BadFlow(_))
        ));
        assert!(matches!(
            MobilityNetwork::from_flows(vec![1.0, 1.0], &[(0, 1, -1.0)], 0.1),
            Err(NetworkError::BadFlow(_))
        ));
        assert!(matches!(
            MobilityNetwork::from_flows(vec![1.0, 1.0], &[(0, 1, 1.0)], 1.0),
            Err(NetworkError::BadLeaveRate(_))
        ));
    }

    #[test]
    fn edges_list_the_nonzero_rates_row_by_row() {
        let net = MobilityNetwork::from_flows(
            vec![1_000.0, 2_000.0, 500.0],
            &[(0, 2, 1.0), (0, 1, 3.0), (1, 0, 3.0)],
            0.1,
        )
        .unwrap();
        let rows = |factor: f64| -> Vec<Vec<(usize, f64)>> {
            net.edges(factor).rows().map(<[_]>::to_vec).collect()
        };
        let full = rows(1.0);
        assert_eq!(
            full,
            vec![
                vec![(1, net.rate(0, 1)), (2, net.rate(0, 2))],
                vec![(0, net.rate(1, 0))],
                vec![],
            ]
        );
        let half = rows(0.5);
        assert_eq!(
            half[0],
            vec![(1, net.rate(0, 1) * 0.5), (2, net.rate(0, 2) * 0.5)]
        );
        // A full closure leaves no edge at all.
        assert!(rows(0.0).iter().all(Vec::is_empty));
    }

    #[test]
    fn from_model_uses_predictions() {
        use tweetmob_geo::Point;
        use tweetmob_models::Gravity2Fit;
        // A hand-specified gravity model: flows ∝ mn/d².
        let model = Gravity2Fit {
            c: 1.0,
            gamma: 2.0,
            log_r_squared: 1.0,
            n_used: 0,
        };
        // Patch 1 close to 0 (~11 km), patch 2 far (~111 km).
        let centers = [
            Point::new_unchecked(0.0, 100.0),
            Point::new_unchecked(0.0, 100.1),
            Point::new_unchecked(0.0, 101.0),
        ];
        let intervening = InterveningPopulation::build(&centers, &[1_000.0; 3]);
        let net = MobilityNetwork::from_model(&model, &intervening, 0.1).unwrap();
        assert_eq!(net.populations(), intervening.populations());
        // From patch 0: rate to 1 should dominate 100:1.
        assert!(net.rate(0, 1) / net.rate(0, 2) > 50.0);
        assert!((net.leave_rate(0) - 0.1).abs() < 1e-12);
    }
}
