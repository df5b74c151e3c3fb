//! Effective distance (Brockmann & Helbing, Science 2013).
//!
//! Epidemic arrival times are poorly predicted by geographic distance
//! and well predicted by the *effective distance* of the mobility
//! network: for a one-step transition probability `p(i → j)` the edge
//! length is `d_eff = 1 − ln p` (always ≥ 1; rare connections are long),
//! and the effective distance between any two patches is the shortest
//! path under those lengths. This module computes it with Dijkstra and
//! provides the arrival-time correlation analysis that demonstrates the
//! payoff of the paper's Twitter-derived mobility networks for disease
//! prediction.

use crate::network::MobilityNetwork;
use crate::scenario::EpidemicTimeline;
use tweetmob_stats::correlation::{pearson, Correlation};
use tweetmob_stats::StatsError;

/// Effective distances from `source` to every patch (0 for the source
/// itself, `f64::INFINITY` for unreachable patches).
///
/// Edge lengths are `1 − ln p(i→j)` with
/// `p(i→j) = rate(i,j) / leave_rate(i)` — the probability that a given
/// departure from `i` heads to `j`.
///
/// # Panics
///
/// If `source` is out of range.
pub fn effective_distance_from(net: &MobilityNetwork, source: usize) -> Vec<f64> {
    let n = net.n_patches();
    assert!(source < n, "source patch out of range");
    // Dijkstra over the dense rate matrix; n is small (tens of patches),
    // so the O(n²) array implementation beats a heap.
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[source] = 0.0;
    for _ in 0..n {
        // Extract the unfinished node with the smallest distance.
        let mut u = usize::MAX;
        let mut best = f64::INFINITY;
        for (i, (&d, &fin)) in dist.iter().zip(&done).enumerate() {
            if !fin && d < best {
                best = d;
                u = i;
            }
        }
        if u == usize::MAX {
            break; // remaining nodes unreachable
        }
        done[u] = true;
        let leave = net.leave_rate(u);
        if leave <= 0.0 {
            continue;
        }
        for v in 0..n {
            if v == u || done[v] {
                continue;
            }
            let p = net.rate(u, v) / leave;
            if p <= 0.0 {
                continue;
            }
            let edge = 1.0 - p.ln();
            if dist[u] + edge < dist[v] {
                dist[v] = dist[u] + edge;
            }
        }
    }
    dist
}

/// Correlation between a distance vector and epidemic arrival times.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalCorrelation {
    /// Pearson correlation of (distance, arrival day) over the patches
    /// that were both reached and at finite distance.
    pub correlation: Correlation,
    /// Patches excluded (never reached, or unreachable in the network).
    pub excluded: usize,
}

/// Correlates `distances[p]` (any notion of distance from the outbreak
/// seed) against the day the outbreak reached patch `p` (first time
/// infections ≥ `threshold`). The seed patch itself (distance 0,
/// arrival 0) is excluded so it cannot anchor the fit.
///
/// # Errors
///
/// Propagates correlation failures (fewer than 3 usable patches).
pub fn arrival_time_correlation(
    distances: &[f64],
    timeline: &EpidemicTimeline,
    seed_patch: usize,
    threshold: f64,
) -> Result<ArrivalCorrelation, StatsError> {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut excluded = 0usize;
    for p in 0..timeline.n_patches() {
        if p == seed_patch {
            continue;
        }
        match (
            distances.get(p).copied(),
            timeline.arrival_time(p, threshold),
        ) {
            (Some(d), Some(t)) if d.is_finite() => {
                xs.push(d);
                ys.push(t);
            }
            _ => excluded += 1,
        }
    }
    Ok(ArrivalCorrelation {
        correlation: pearson(&xs, &ys)?,
        excluded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OutbreakScenario;

    /// A line network 0 – 1 – 2 – 3 with strong nearest-neighbour
    /// coupling and one weak long-range shortcut 0 → 3.
    fn line_with_shortcut() -> MobilityNetwork {
        MobilityNetwork::from_flows(
            vec![100_000.0; 4],
            &[
                (0, 1, 100.0),
                (1, 0, 100.0),
                (1, 2, 100.0),
                (2, 1, 100.0),
                (2, 3, 100.0),
                (3, 2, 100.0),
                (0, 3, 1.0), // rare direct flight
            ],
            0.05,
        )
        .unwrap()
    }

    #[test]
    fn effective_distance_zero_at_source_and_monotone_on_chain() {
        let net = line_with_shortcut();
        let d = effective_distance_from(&net, 0);
        assert_eq!(d[0], 0.0);
        assert!(d[1] < d[2], "chain order: {d:?}");
        // Patch 3 is reachable both via the chain and the weak shortcut;
        // either way it is the farthest or tied.
        assert!(d[3] >= d[1]);
        assert!(d.iter().all(|&v| v.is_finite()));
    }

    #[test]
    fn rare_edges_are_long() {
        let net = line_with_shortcut();
        let d = effective_distance_from(&net, 0);
        // Direct shortcut length: p = 1/201 of departures → 1 − ln p ≈ 6.3.
        // Chain length: 3 hops, each p ≈ 100/201 → ≈ 3 × 1.7 = 5.1.
        // So the chain should win and d[3] ≈ 5.1 < 6.3.
        assert!(d[3] < 6.3, "d3 = {}", d[3]);
        assert!(d[3] > 4.0, "d3 = {}", d[3]);
    }

    #[test]
    fn unreachable_patch_is_infinite() {
        let net = MobilityNetwork::from_flows(
            vec![1_000.0, 1_000.0, 1_000.0],
            &[(0, 1, 1.0)], // patch 2 isolated
            0.05,
        )
        .unwrap();
        let d = effective_distance_from(&net, 0);
        assert!(d[1].is_finite());
        assert!(d[2].is_infinite());
    }

    #[test]
    fn effective_distance_predicts_arrival_order() {
        // Hub-and-spoke with very different coupling strengths: patch 1
        // strongly coupled to the seed, patch 2 weakly, patch 3 only via
        // patch 2. Arrival order must match effective distance order.
        let net = MobilityNetwork::from_flows(
            vec![500_000.0, 100_000.0, 100_000.0, 100_000.0],
            &[
                (0, 1, 500.0),
                (1, 0, 500.0),
                (0, 2, 5.0),
                (2, 0, 5.0),
                (2, 3, 50.0),
                (3, 2, 50.0),
            ],
            0.04,
        )
        .unwrap();
        let d = effective_distance_from(&net, 0);
        let tl = OutbreakScenario::new(net, 0.5, 0.2)
            .seed(0, 100.0)
            .run_deterministic(400.0, 0.25)
            .unwrap();
        let arrivals: Vec<f64> = (1..4)
            .map(|p| tl.arrival_time(p, 50.0).expect("reached"))
            .collect();
        // d order: 1 < 2 < 3 → arrival order must match.
        assert!(d[1] < d[2] && d[2] < d[3], "{d:?}");
        assert!(
            arrivals[0] < arrivals[1] && arrivals[1] < arrivals[2],
            "{arrivals:?}"
        );
        let corr = arrival_time_correlation(&d, &tl, 0, 50.0).unwrap();
        assert!(corr.correlation.r > 0.9, "r = {}", corr.correlation.r);
        assert_eq!(corr.excluded, 0);
    }

    #[test]
    fn arrival_correlation_excludes_unreached_patches() {
        let net = MobilityNetwork::from_flows(
            vec![100_000.0, 100_000.0, 100_000.0],
            &[(0, 1, 10.0), (1, 0, 10.0)], // patch 2 isolated
            0.05,
        )
        .unwrap();
        let d = effective_distance_from(&net, 0);
        let tl = OutbreakScenario::new(net, 0.5, 0.2)
            .seed(0, 100.0)
            .run_deterministic(100.0, 0.25)
            .unwrap();
        // Only patches 1 and 2 are candidates; 2 is excluded → a single
        // point is below Pearson's minimum, which must surface as an
        // error rather than a bogus correlation.
        let result = arrival_time_correlation(&d, &tl, 0, 50.0);
        assert!(result.is_err());
    }
}
