//! Study scales and area sets with point-to-area assignment.

use std::sync::Arc;
use tweetmob_geo::{equirectangular_km, PairGeometry, Point, TrigPoint, EARTH_RADIUS_KM};
use tweetmob_synth::{Area, NATIONAL_TOP20, NSW_TOP20, SYDNEY_SUBURBS_TOP20};

/// The paper's three geographic scales (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// 20 most populated Australian cities; ε = 50 km.
    National,
    /// 20 most populated NSW cities; ε = 25 km.
    State,
    /// 20 most populated Sydney suburbs; ε = 2 km.
    Metropolitan,
}

impl Scale {
    /// All three scales, in paper order.
    pub const ALL: [Scale; 3] = [Scale::National, Scale::State, Scale::Metropolitan];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Scale::National => "National",
            Scale::State => "State",
            Scale::Metropolitan => "Metropolitan",
        }
    }

    /// The paper's search radius ε for this scale, km.
    pub fn search_radius_km(self) -> f64 {
        match self {
            Scale::National => 50.0,
            Scale::State => 25.0,
            Scale::Metropolitan => 2.0,
        }
    }

    /// The 20 areas studied at this scale.
    pub fn areas(self) -> &'static [Area] {
        match self {
            Scale::National => &NATIONAL_TOP20,
            Scale::State => &NSW_TOP20,
            Scale::Metropolitan => &SYDNEY_SUBURBS_TOP20,
        }
    }
}

/// A set of areas with a search radius: the unit every experiment
/// operates on.
#[derive(Debug, Clone)]
pub struct AreaSet {
    areas: Vec<Area>,
    radius_km: f64,
    /// Build-once pairwise centre geometry, shared with every model
    /// consumer (observations, intervening population, epidemic network).
    geometry: Arc<PairGeometry>,
    /// Per-area precomputed assignment filters for the batch path.
    filters: Vec<AreaFilter>,
}

/// Per-area state precomputed once for [`AreaSet::assign_batch`]: a
/// conservative degree-space bounding window plus the centre's hoisted
/// trigonometry.
///
/// The window is derived *from* the equirectangular pre-filter, never
/// replacing it: `equirectangular_km ≥ R·|Δlat_rad|` always, and (once
/// the latitude window has passed) `≥ R·|Δlon_rad|·cos_min` with
/// `cos_min` the cosine lower bound over the admissible latitude band —
/// so a point outside the window is guaranteed to be outside the
/// equirectangular gate too (the 0.1 % inflation absorbs rounding).
/// Survivors still run the exact equirectangular gate and the exact
/// haversine (via [`TrigPoint`], bit-identical by its contract), which
/// makes batch assignments decision-identical to [`AreaSet::assign`].
#[derive(Debug, Clone)]
struct AreaFilter {
    lat: f64,
    lon: f64,
    /// Latitude half-window, degrees: beyond it the equirectangular
    /// pre-filter necessarily rejects.
    dlat_max: f64,
    /// Longitude half-window, degrees, valid only after the latitude
    /// window passed; `INFINITY` when the latitude band nears a pole.
    dlon_max: f64,
    trig: TrigPoint,
}

impl AreaFilter {
    fn new(center: Point, prefilter_km: f64) -> Self {
        // Kilometres per degree of latitude: R·π/180.
        let km_per_deg = EARTH_RADIUS_KM.to_radians();
        let dlat_max = prefilter_km / km_per_deg * 1.001;
        let lo = (center.lat - dlat_max).clamp(-90.0, 90.0);
        let hi = (center.lat + dlat_max).clamp(-90.0, 90.0);
        // cos is unimodal on [-90°, 90°], so its minimum over the band is
        // at an endpoint. The equirectangular mean latitude of any point
        // inside the latitude window stays inside [lo, hi].
        let cos_min = lo.to_radians().cos().min(hi.to_radians().cos());
        let dlon_max = if cos_min > 1e-6 {
            prefilter_km / (km_per_deg * cos_min) * 1.001
        } else {
            f64::INFINITY
        };
        Self {
            lat: center.lat,
            lon: center.lon,
            dlat_max,
            dlon_max,
            trig: TrigPoint::new(center),
        }
    }
}

impl AreaSet {
    /// Builds the canonical area set of a scale.
    pub fn of_scale(scale: Scale) -> Self {
        Self::new(scale.areas().to_vec(), scale.search_radius_km())
    }

    /// Builds the area set of a scale with a custom search radius (the
    /// paper's Fig. 3(b) uses the metropolitan areas with ε = 0.5 km).
    pub fn of_scale_with_radius(scale: Scale, radius_km: f64) -> Self {
        Self::new(scale.areas().to_vec(), radius_km)
    }

    /// Builds a custom area set.
    ///
    /// # Panics
    ///
    /// If `areas` is empty or `radius_km` is not positive.
    pub fn new(areas: Vec<Area>, radius_km: f64) -> Self {
        assert!(!areas.is_empty(), "area set cannot be empty");
        assert!(radius_km > 0.0, "search radius must be positive");
        let centers: Vec<Point> = areas.iter().map(|a| a.center).collect();
        let geometry = PairGeometry::shared(&centers);
        let prefilter = radius_km * 1.05 + 1.0;
        let filters = centers
            .iter()
            .map(|&c| AreaFilter::new(c, prefilter))
            .collect();
        Self {
            areas,
            radius_km,
            geometry,
            filters,
        }
    }

    /// The areas, in construction order.
    #[inline]
    pub fn areas(&self) -> &[Area] {
        &self.areas
    }

    /// Number of areas.
    #[inline]
    pub fn len(&self) -> usize {
        self.areas.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// The search radius ε, km.
    #[inline]
    pub fn radius_km(&self) -> f64 {
        self.radius_km
    }

    /// Centre-to-centre distance between areas `i` and `j`, km.
    ///
    /// # Panics
    ///
    /// If an index is out of range.
    #[inline]
    pub fn distance_km(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.len() && j < self.len(), "area index out of range");
        self.geometry.distance(i, j)
    }

    /// The shared pairwise geometry cache over the area centres.
    #[inline]
    pub fn geometry(&self) -> &Arc<PairGeometry> {
        &self.geometry
    }

    /// Mean pairwise centre distance (the paper quotes 1422 / 341 /
    /// 7.5 km for its three scales).
    #[cfg(test)]
    fn mean_pairwise_distance_km(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        // The cached upper triangle is stored in the same row-major
        // i < j order the pre-cache loop summed in, so this stays
        // bit-identical to the old implementation.
        self.geometry.total_distance_km() / (n * (n - 1) / 2) as f64
    }

    /// Assigns a point to the nearest area whose centre is within ε, or
    /// `None` when no area covers it: the scalar reference
    /// [`AreaSet::assign_batch`] is checked against.
    ///
    /// A cheap equirectangular pre-filter at 1.05× the radius rejects
    /// far-away areas before the exact haversine test.
    #[cfg(test)]
    pub(crate) fn assign(&self, p: Point) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let prefilter = self.radius_km * 1.05 + 1.0;
        for (i, a) in self.areas.iter().enumerate() {
            if equirectangular_km(a.center, p) > prefilter {
                continue;
            }
            let d = tweetmob_geo::haversine_km(a.center, p);
            if d <= self.radius_km && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Assigns a whole coordinate-column slice at once, appending one
    /// code per point to `out`: the assigned area index, or `-1` when no
    /// area covers the point. Also calls `covered(k, area)` for every
    /// area whose centre lies within ε of point `k` (an index into the
    /// columns), not just the nearest one: discs overlap wherever two
    /// centres are less than 2ε apart (Sydney and Wollongong at national
    /// scale), and population counting needs all of them.
    ///
    /// Decision-identical to calling the scalar `assign` per point — the
    /// equirectangular gate and the haversine comparison are the exact
    /// same float expressions — but structured for columnar callers:
    /// the per-area trigonometry is hoisted into build-once
    /// [`AreaFilter`]s, and most `(point, area)` combinations die in a
    /// two-compare degree-space window before any trigonometry runs.
    ///
    /// # Panics
    ///
    /// If the columns have different lengths.
    pub fn assign_batch(
        &self,
        lats: &[f64],
        lons: &[f64],
        out: &mut Vec<i32>,
        mut covered: impl FnMut(usize, usize),
    ) {
        assert_eq!(
            lats.len(),
            lons.len(),
            "coordinate columns must be parallel"
        );
        let prefilter = self.radius_km * 1.05 + 1.0;
        out.reserve(lats.len());
        for (k, (&lat, &lon)) in lats.iter().zip(lons.iter()).enumerate() {
            let mut best: Option<(usize, f64)> = None;
            let mut point_trig: Option<TrigPoint> = None;
            let p = Point::new_unchecked(lat, lon);
            for (i, f) in self.filters.iter().enumerate() {
                // Conservative window: can only skip what the
                // equirectangular gate below would skip anyway.
                if (lat - f.lat).abs() > f.dlat_max || (lon - f.lon).abs() > f.dlon_max {
                    continue;
                }
                if equirectangular_km(Point::new_unchecked(f.lat, f.lon), p) > prefilter {
                    continue;
                }
                // The point's trigonometry is hoisted lazily: points that
                // survive no window (the overwhelming majority at paper
                // scale) never pay for it.
                let pt = *point_trig.get_or_insert_with(|| TrigPoint::new(p));
                let d = f.trig.distance_km(&pt);
                if d <= self.radius_km {
                    covered(k, i);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((i, d));
                    }
                }
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "an area index is below the area count, a few dozen at most"
            )]
            out.push(best.map_or(-1, |(i, _)| i as i32));
        }
    }

    /// Census populations as `f64`, aligned with [`AreaSet::areas`].
    pub fn census_populations(&self) -> Vec<f64> {
        self.areas.iter().map(|a| a.population as f64).collect()
    }

    /// Area centres, aligned with [`AreaSet::areas`].
    pub fn centers(&self) -> Vec<Point> {
        self.areas.iter().map(|a| a.center).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_constants_match_paper() {
        assert_eq!(Scale::National.search_radius_km(), 50.0);
        assert_eq!(Scale::State.search_radius_km(), 25.0);
        assert_eq!(Scale::Metropolitan.search_radius_km(), 2.0);
        for s in Scale::ALL {
            assert_eq!(s.areas().len(), 20);
        }
        assert_eq!(Scale::National.name(), "National");
    }

    #[test]
    fn mean_pairwise_distances_ordered_like_paper() {
        let nat = AreaSet::of_scale(Scale::National).mean_pairwise_distance_km();
        let sta = AreaSet::of_scale(Scale::State).mean_pairwise_distance_km();
        let met = AreaSet::of_scale(Scale::Metropolitan).mean_pairwise_distance_km();
        assert!(nat > 900.0 && nat < 2_000.0, "national {nat}");
        assert!(sta > 200.0 && sta < 500.0, "state {sta}");
        assert!(met > 4.0 && met < 25.0, "metro {met}");
    }

    #[test]
    fn assign_inside_radius() {
        let set = AreaSet::of_scale(Scale::National);
        // Exact Sydney centre.
        let sydney = set.areas()[0].center;
        assert_eq!(set.assign(sydney), Some(0));
        // Parramatta (~20 km west of Sydney CBD) still inside 50 km.
        let parramatta = Point::new_unchecked(-33.8150, 151.0010);
        assert_eq!(set.assign(parramatta), Some(0));
    }

    #[test]
    fn assign_outside_any_radius_is_none() {
        let set = AreaSet::of_scale(Scale::Metropolitan);
        // Alice Springs is nowhere near any Sydney suburb.
        let alice = Point::new_unchecked(-23.6980, 133.8807);
        assert_eq!(set.assign(alice), None);
        // 5 km from the nearest suburb centre at ε = 2 km is also out.
        let offshore = Point::new_unchecked(-33.8688, 151.40);
        assert_eq!(set.assign(offshore), None);
    }

    #[test]
    fn assign_prefers_nearest_when_radii_overlap() {
        // Newcastle and Sydney are ~117 km apart; with ε = 100 km a point
        // 30 km from Newcastle and ~90 km from Sydney must pick Newcastle.
        let set = AreaSet::new(
            vec![Scale::National.areas()[0], Scale::National.areas()[6]],
            100.0,
        );
        let near_newcastle = Point::new_unchecked(-33.15, 151.60);
        assert_eq!(set.assign(near_newcastle), Some(1));
    }

    #[test]
    fn smaller_radius_rejects_more() {
        let wide = AreaSet::of_scale_with_radius(Scale::Metropolitan, 2.0);
        let narrow = AreaSet::of_scale_with_radius(Scale::Metropolitan, 0.5);
        // 1 km from the Bondi centre: inside 2 km, outside 0.5 km.
        let near_bondi = Point::new_unchecked(-33.8915, 151.2875);
        assert_eq!(wide.assign(near_bondi), Some(19));
        assert_eq!(narrow.assign(near_bondi), None);
    }

    #[test]
    fn distances_symmetric_and_consistent() {
        let set = AreaSet::of_scale(Scale::National);
        let d_sm = set.distance_km(0, 1); // Sydney–Melbourne
        assert!((d_sm - 713.0).abs() < 15.0, "Sydney-Melbourne {d_sm}");
        for i in 0..set.len() {
            assert_eq!(set.distance_km(i, i), 0.0);
            for j in 0..set.len() {
                assert_eq!(set.distance_km(i, j), set.distance_km(j, i));
            }
        }
    }

    #[test]
    fn geometry_cache_matches_distance_accessor() {
        let set = AreaSet::of_scale(Scale::State);
        let geo = set.geometry();
        assert_eq!(geo.len(), set.len());
        for i in 0..set.len() {
            for j in 0..set.len() {
                assert_eq!(
                    set.distance_km(i, j).to_bits(),
                    geo.distance(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "area set cannot be empty")]
    fn empty_area_set_panics() {
        AreaSet::new(Vec::new(), 10.0);
    }

    #[test]
    #[should_panic(expected = "search radius must be positive")]
    fn zero_radius_panics() {
        AreaSet::new(Scale::National.areas().to_vec(), 0.0);
    }

    #[test]
    fn batch_assign_matches_scalar_everywhere() {
        // A coarse sweep over the whole continent at every scale: the
        // batch path must make the identical decision for every point,
        // including boundary points far outside any window.
        for scale in Scale::ALL {
            let set = AreaSet::of_scale(scale);
            let mut lats = Vec::new();
            let mut lons = Vec::new();
            let mut lat = -45.0;
            while lat < -10.0 {
                let mut lon = 112.0;
                while lon < 155.0 {
                    lats.push(lat);
                    lons.push(lon);
                    lon += 0.7;
                }
                lat += 0.7;
            }
            // And the exact centres plus near-radius offsets.
            for a in set.areas() {
                for off in [0.0, 0.01, 0.3, 0.5] {
                    lats.push(a.center.lat + off);
                    lons.push(a.center.lon - off);
                }
            }
            let mut codes = Vec::new();
            set.assign_batch(&lats, &lons, &mut codes, |_, _| {});
            assert_eq!(codes.len(), lats.len());
            for k in 0..lats.len() {
                let p = Point::new_unchecked(lats[k], lons[k]);
                let batch = usize::try_from(codes[k]).ok();
                assert_eq!(batch, set.assign(p), "{scale:?} point {p:?}");
            }
        }
    }

    #[test]
    fn batch_assign_appends_without_clearing() {
        let set = AreaSet::of_scale(Scale::National);
        let mut codes = vec![7];
        set.assign_batch(&[-33.8688], &[151.2093], &mut codes, |_, _| {});
        assert_eq!(codes, vec![7, 0]);
    }

    #[test]
    fn batch_assign_matches_scalar_on_random_points() {
        let set = AreaSet::of_scale(Scale::State);
        for seed in 0..48 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let n = rng.next_below(80);
            let lats: Vec<f64> = (0..n).map(|_| rng.range_f64(-55.0, -8.0)).collect();
            let lons: Vec<f64> = (0..n).map(|_| rng.range_f64(110.0, 160.0)).collect();
            let mut codes = Vec::new();
            set.assign_batch(&lats, &lons, &mut codes, |_, _| {});
            for k in 0..n {
                let batch = usize::try_from(codes[k]).ok();
                let scalar = set.assign(Point::new_unchecked(lats[k], lons[k]));
                assert_eq!(batch, scalar, "seed {seed}, point {k}");
            }
        }
    }

    #[test]
    fn census_and_centers_align() {
        let set = AreaSet::of_scale(Scale::State);
        assert_eq!(set.census_populations().len(), 20);
        assert_eq!(set.centers().len(), 20);
        assert_eq!(set.census_populations()[0], 4_757_000.0); // Sydney
    }
}
