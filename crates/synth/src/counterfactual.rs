//! Counterfactual geographies (DESIGN.md experiment E11).
//!
//! The paper's causal claim is geographic: "Radiation's advantages are
//! not universal, and they may not suit countries that have sparsely and
//! unevenly distributed population, such as Australia or Canada. Unlike
//! U.S.A. where a large population spreads relatively evenly across the
//! country…". This module builds that U.S.-like counterfactual: the same
//! number of people, the same distance-driven travel behaviour, but
//! settlements laid out on a jittered grid filling the landmass.
//!
//! Mechanism being tested: human destination choice is distance-driven
//! (gravity-like). Radiation has no distance term — it sees distance only
//! through the intervening population `s(i, j)`. In a smooth geography,
//! `s ≈ ρπd²` is tightly coupled to distance, so radiation inherits a
//! distance decay and tracks the flows; in Australia's gappy geography,
//! `s` decouples from `d` (it can stay flat across a thousand empty
//! kilometres), so radiation's predictions scatter. Holding the
//! generator fixed and swapping only the world should therefore *shrink*
//! the gravity-vs-radiation gap — which the E11 experiment (and the
//! `counterfactual` regeneration binary) confirms.

use crate::gazetteer::{settlement_radius_km, Area, Place};
use tweetmob_geo::Point;
use tweetmob_stats::rng::SplitMix64;

/// Bounding box of the uniform country's landmass: the Australian
/// continent's span, but *filled* rather than coastal.
const UNIFORM_LAT: (f64, f64) = (-38.0, -16.0);
const UNIFORM_LON: (f64, f64) = (115.0, 150.0);

/// City names for the uniform country (synthetic, deterministic).
fn city_name(index: usize) -> &'static str {
    // A static pool large enough for the default grids; names beyond the
    // pool reuse the last entry (experiments only need stable labels).
    const NAMES: [&str; 64] = [
        "Evenville",
        "Gridford",
        "Planum",
        "Meanwood",
        "Centroid City",
        "Uniforma",
        "Lattice Springs",
        "Isotropia",
        "Flatrock",
        "Parity",
        "Homogen",
        "Tessell",
        "Quadrant",
        "Steady",
        "Regular Falls",
        "Balance",
        "Midpoint",
        "Arraytown",
        "Cell City",
        "Spacing",
        "Evenmore",
        "Gridley",
        "Planefield",
        "Meanmont",
        "Centrum",
        "Unity",
        "Latticeburg",
        "Isomont",
        "Flatfield",
        "Parityville",
        "Homestead",
        "Tessera",
        "Quadra",
        "Steadfast",
        "Regulus",
        "Balancia",
        "Midville",
        "Arrayford",
        "Cellmont",
        "Spacerock",
        "Evenfield",
        "Gridmont",
        "Planville",
        "Meanford",
        "Centerton",
        "Uniburg",
        "Latticemont",
        "Isoville",
        "Flatburg",
        "Parityfield",
        "Homeville",
        "Tessmont",
        "Quadville",
        "Steadmont",
        "Regton",
        "Balford",
        "Midburg",
        "Arrayville",
        "Cellford",
        "Spaceton",
        "Evenburg",
        "Gridville",
        "Planmont",
        "Meanville",
    ];
    NAMES[index.min(NAMES.len() - 1)]
}

/// Builds a uniform country: `nx × ny` cities on a jittered grid, total
/// population `total_population` split with mild log-normal variation
/// (σ = 0.3 — big and small towns exist, but no coastal mega-cities).
///
/// Deterministic in `seed`.
pub fn uniform_country_places(
    nx: usize,
    ny: usize,
    total_population: u64,
    seed: u64,
) -> Vec<Place> {
    assert!(nx >= 2 && ny >= 2, "grid needs at least 2×2 cities");
    let mut rng = SplitMix64::new(seed);
    let n = nx * ny;
    // Raw log-normal weights, then normalise to the total.
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u1 = rng.next_f64().max(1e-300);
            let u2 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (0.3 * z).exp()
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();

    let lat_step = (UNIFORM_LAT.1 - UNIFORM_LAT.0) / ny as f64;
    let lon_step = (UNIFORM_LON.1 - UNIFORM_LON.0) / nx as f64;
    let mut places = Vec::with_capacity(n);
    for gy in 0..ny {
        for gx in 0..nx {
            let i = gy * nx + gx;
            // Jitter within ±25 % of the cell so the lattice is not
            // perfectly regular (a perfect lattice has degenerate
            // distance multiplicity).
            let jlat = (rng.next_f64() - 0.5) * 0.5 * lat_step;
            let jlon = (rng.next_f64() - 0.5) * 0.5 * lon_step;
            let center = Point::new_unchecked(
                UNIFORM_LAT.0 + (gy as f64 + 0.5) * lat_step + jlat,
                UNIFORM_LON.0 + (gx as f64 + 0.5) * lon_step + jlon,
            );
            let population = ((weights[i] / weight_sum) * total_population as f64)
                .round()
                .max(1.0) as u64;
            let area = Area {
                name: city_name(i),
                center,
                population,
            };
            places.push(Place {
                area,
                radius_km: settlement_radius_km(population),
            });
        }
    }
    places
}

/// The `k` most populated places of a world, as study areas (descending
/// population — the shape every paper scale uses).
pub fn top_areas(places: &[Place], k: usize) -> Vec<Area> {
    let mut areas: Vec<Area> = places.iter().map(|p| p.area).collect();
    areas.sort_by_key(|a| std::cmp::Reverse(a.population));
    areas.truncate(k);
    areas
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_geo::haversine_km;
    use tweetmob_stats::concentration::gini;

    #[test]
    fn grid_dimensions_and_total_population() {
        let places = uniform_country_places(8, 6, 17_000_000, 1);
        assert_eq!(places.len(), 48);
        let total: u64 = places.iter().map(|p| p.area.population).sum();
        let want = 17_000_000f64;
        assert!(
            (total as f64 - want).abs() / want < 0.01,
            "total {total} vs {want}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = uniform_country_places(5, 5, 1_000_000, 42);
        let b = uniform_country_places(5, 5, 1_000_000, 42);
        assert_eq!(a, b);
        let c = uniform_country_places(5, 5, 1_000_000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn cities_fill_the_interior() {
        let places = uniform_country_places(8, 6, 17_000_000, 7);
        // Some city must sit deep inland (the Australian world has none
        // within 300 km of the continental centre).
        let interior = Point::new_unchecked(-26.0, 133.0);
        let nearest = places
            .iter()
            .map(|p| haversine_km(interior, p.area.center))
            .fold(f64::INFINITY, f64::min);
        assert!(nearest < 400.0, "nearest city {nearest} km from centre");
    }

    #[test]
    fn uniform_world_less_concentrated_than_australia() {
        let uniform = uniform_country_places(8, 6, 17_000_000, 3);
        let upops: Vec<f64> = uniform.iter().map(|p| p.area.population as f64).collect();
        let apops: Vec<f64> = crate::gazetteer::world_places()
            .iter()
            .map(|p| p.area.population as f64)
            .collect();
        let ug = gini(&upops).unwrap();
        let ag = gini(&apops).unwrap();
        assert!(
            ug + 0.2 < ag,
            "uniform gini {ug:.2} should be well below australia {ag:.2}"
        );
    }

    #[test]
    fn top_areas_sorted_descending() {
        let places = uniform_country_places(6, 5, 5_000_000, 9);
        let areas = top_areas(&places, 20);
        assert_eq!(areas.len(), 20);
        for w in areas.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
        // Top area is genuinely the max of the world.
        let max = places.iter().map(|p| p.area.population).max().unwrap();
        assert_eq!(areas[0].population, max);
    }

    #[test]
    fn jittered_grid_has_distinct_pairwise_distances() {
        let places = uniform_country_places(4, 4, 1_000_000, 5);
        let mut dists = Vec::new();
        for i in 0..places.len() {
            for j in (i + 1)..places.len() {
                dists.push(haversine_km(places[i].area.center, places[j].area.center));
            }
        }
        dists.sort_by(f64::total_cmp);
        let duplicates = dists
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() < 1e-6)
            .count();
        assert_eq!(duplicates, 0, "jitter should break lattice degeneracy");
    }

    #[test]
    #[should_panic(expected = "grid needs at least 2×2 cities")]
    fn tiny_grid_rejected() {
        uniform_country_places(1, 5, 1_000, 0);
    }
}
