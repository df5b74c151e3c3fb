//! Study scales and area sets with point-to-area assignment.

use std::collections::BTreeMap;
use std::fmt;
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
    /// Build-once lat/lon grid that resolves most points of the batch
    /// path without trigonometry.
    cells: CellTable,
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
/// The window also bounds the area's reach in the [`CellTable`].
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

/// Most cells a [`CellTable`] holds: 2¹⁹ `u16` codes, 1 MiB.
const MAX_CELLS: usize = 1 << 19;

/// Degrees by which every cell is widened on each side when it is
/// classified, so that the rounding of the `floor()` in
/// [`CellTable::cell`] cannot carry a point into a cell whose kind does
/// not hold for it.
const CELL_PAD_DEG: f64 = 1e-9;

/// Kilometres by which every distance bound is widened, absorbing the
/// rounding of the haversine and equirectangular expressions.
const BOUND_TOL_KM: f64 = 1e-6;

/// Cell code of an empty cell. Codes `1..MIXED` are interior cells of
/// area `code - 1`; codes `MIXED..` are mixed cells with candidate list
/// `code - MIXED`.
const EMPTY: u16 = 0;
const MIXED: u16 = 0x8000;

/// A build-once lat/lon grid over the union of the [`AreaFilter`]
/// windows, padded by one cell, that tells [`AreaSet::assign_batch`]
/// which areas a point can be within ε of.
///
/// Each cell is one of three kinds:
/// - *empty*: no disc reaches the cell;
/// - *interior(i)*: every point of the cell is within ε of area `i` and
///   passes its window and equirectangular gate, and no other disc
///   reaches the cell;
/// - *mixed*: an ascending list of candidate areas for the exact path.
///
/// The classification is conservative, so the batch path stays
/// decision-identical to the exact one. For a cell with centre `m`,
/// half-height `h` and half-width `w` (radians, padded by
/// [`CELL_PAD_DEG`]), a point `p` of the cell is reached from `m` by a
/// meridian arc then a parallel arc of total length at most
/// `r = R·(h + w·cos_max)`, with `cos_max` the largest cosine over the
/// cell's latitude band. The triangle inequality bounds the distance
/// from a centre `c` to `p` by `d(c, m) ± r`, widened by
/// [`BOUND_TOL_KM`]. An area is dropped from a cell only when its lower
/// bound exceeds ε; a cell is interior only when its one candidate's
/// upper bound and equirectangular upper bound both clear their gates.
///
/// If a window reaches a pole, or the grid cannot be encoded, the table
/// is a single mixed cell that lists every area.
#[derive(Clone)]
struct CellTable {
    /// South-west corner of the grid, degrees.
    lat0: f64,
    lon0: f64,
    /// Cells per degree of latitude and of longitude.
    inv_dlat: f64,
    inv_dlon: f64,
    rows: usize,
    cols: usize,
    /// One code per cell, row-major from the south-west corner.
    cells: Vec<u16>,
    /// Distinct candidate lists of the mixed cells, each ascending.
    candidates: Vec<Box<[usize]>>,
}

/// What the [`CellTable`] knows about one point.
enum Cell<'a> {
    Empty,
    Interior(usize),
    Mixed(&'a [usize]),
}

impl CellTable {
    /// The table whose one mixed cell lists all `n` areas: with zero
    /// cells per degree every finite point falls in it.
    fn single_mixed(n: usize) -> Self {
        Self {
            lat0: 0.0,
            lon0: 0.0,
            inv_dlat: 0.0,
            inv_dlon: 0.0,
            rows: 1,
            cols: 1,
            cells: vec![MIXED],
            candidates: vec![(0..n).collect()],
        }
    }

    /// Sizes the grid, then classifies the cells of every area's window.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "grid sizes are bounded by MAX_CELLS and area indices by MIXED before any cast"
    )]
    fn new(filters: &[AreaFilter], radius_km: f64, prefilter_km: f64) -> Self {
        let n = filters.len();
        if n >= usize::from(MIXED) || filters.iter().any(|f| !f.dlon_max.is_finite()) {
            return Self::single_mixed(n);
        }
        let (mut lat_lo, mut lat_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lon_lo, mut lon_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for f in filters {
            lat_lo = lat_lo.min(f.lat - f.dlat_max);
            lat_hi = lat_hi.max(f.lat + f.dlat_max);
            lon_lo = lon_lo.min(f.lon - f.dlon_max);
            lon_hi = lon_hi.max(f.lon + f.dlon_max);
        }

        // Cells of side ε/8 at the grid's middle latitude, grown until
        // the grid fits in MAX_CELLS.
        let km_per_deg = EARTH_RADIUS_KM.to_radians();
        let mut dlat = (radius_km / 8.0 / km_per_deg).max(f64::MIN_POSITIVE);
        let mut dlon = dlat / ((lat_lo + lat_hi) / 2.0).to_radians().cos();
        let shape = |dlat: f64, dlon: f64| {
            (
                ((lat_hi - lat_lo) / dlat).ceil() + 2.0,
                ((lon_hi - lon_lo) / dlon).ceil() + 2.0,
            )
        };
        let (mut rows_f, mut cols_f) = shape(dlat, dlon);
        while rows_f * cols_f > MAX_CELLS as f64 {
            dlat *= 1.25;
            dlon *= 1.25;
            (rows_f, cols_f) = shape(dlat, dlon);
        }
        let (rows, cols) = (rows_f as usize, cols_f as usize);
        let (lat0, lon0) = (lat_lo - dlat, lon_lo - dlon);
        if lat0 <= -90.0 || lat0 + rows as f64 * dlat >= 90.0 {
            return Self::single_mixed(n);
        }

        // One packed `cell << 32 | area << 1 | interior` word per
        // (cell, area) pair that survives the lower bound. Each area
        // visits only the cells of its window, plus one on every side.
        let h_rad = (dlat / 2.0 + CELL_PAD_DEG).to_radians();
        let w_rad = (dlon / 2.0 + CELL_PAD_DEG).to_radians();
        let span = |lo: f64, hi: f64, origin: f64, step: f64, len: usize| {
            let first = ((lo - origin) / step).floor() - 1.0;
            let last = ((hi - origin) / step).floor() + 1.0;
            (first.max(0.0) as usize)..=(last.min(len as f64 - 1.0) as usize)
        };
        let mut hits: Vec<u64> = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            let lon_span = span(f.lon - f.dlon_max, f.lon + f.dlon_max, lon0, dlon, cols);
            for row in span(f.lat - f.dlat_max, f.lat + f.dlat_max, lat0, dlat, rows) {
                let cell_lat_lo = lat0 + row as f64 * dlat - CELL_PAD_DEG;
                let cell_lat_hi = lat0 + (row + 1) as f64 * dlat + CELL_PAD_DEG;
                let mid =
                    TrigPoint::new(Point::new_unchecked(lat0 + (row as f64 + 0.5) * dlat, 0.0));
                let reach_km =
                    EARTH_RADIUS_KM * (h_rad + w_rad * cos_max(cell_lat_lo, cell_lat_hi));
                let dy_rad = (cell_lat_lo - f.lat)
                    .abs()
                    .max((cell_lat_hi - f.lat).abs())
                    .to_radians();
                let mean_cos = cos_max((f.lat + cell_lat_lo) / 2.0, (f.lat + cell_lat_hi) / 2.0);
                let lat_inside =
                    cell_lat_lo >= f.lat - f.dlat_max && cell_lat_hi <= f.lat + f.dlat_max;
                for col in lon_span.clone() {
                    let cell_lon_lo = lon0 + col as f64 * dlon - CELL_PAD_DEG;
                    let cell_lon_hi = lon0 + (col + 1) as f64 * dlon + CELL_PAD_DEG;
                    let m = TrigPoint {
                        lon_rad: (lon0 + (col as f64 + 0.5) * dlon).to_radians(),
                        ..mid
                    };
                    let d_km = f.trig.distance_km(&m);
                    if d_km - reach_km - BOUND_TOL_KM > radius_km {
                        continue;
                    }
                    let dx_rad = (cell_lon_lo - f.lon)
                        .abs()
                        .max((cell_lon_hi - f.lon).abs())
                        .to_radians()
                        * mean_cos;
                    let interior = d_km + reach_km + BOUND_TOL_KM < radius_km
                        && EARTH_RADIUS_KM * (dx_rad * dx_rad + dy_rad * dy_rad).sqrt()
                            + BOUND_TOL_KM
                            < prefilter_km
                        && lat_inside
                        && cell_lon_lo >= f.lon - f.dlon_max
                        && cell_lon_hi <= f.lon + f.dlon_max;
                    let cell = row * cols + col;
                    hits.push((cell as u64) << 32 | (i as u64) << 1 | u64::from(interior));
                }
            }
        }
        hits.sort_unstable();

        let mut cells = vec![EMPTY; rows * cols];
        let mut candidates: Vec<Box<[usize]>> = Vec::new();
        let mut list_ids: BTreeMap<Box<[usize]>, u16> = BTreeMap::new();
        for group in hits.chunk_by(|a, b| a >> 32 == b >> 32) {
            let cell = (group[0] >> 32) as usize;
            cells[cell] = if group.len() == 1 && group[0] & 1 == 1 {
                ((group[0] >> 1) as u16) + 1
            } else {
                let list: Box<[usize]> = group.iter().map(|h| (h >> 1 & 0x7fff) as usize).collect();
                if let Some(&id) = list_ids.get(&list) {
                    id
                } else {
                    if candidates.len() == usize::from(MIXED) {
                        return Self::single_mixed(n);
                    }
                    let id = MIXED + candidates.len() as u16;
                    candidates.push(list.clone());
                    list_ids.insert(list, id);
                    id
                }
            };
        }
        Self {
            lat0,
            lon0,
            inv_dlat: 1.0 / dlat,
            inv_dlon: 1.0 / dlon,
            rows,
            cols,
            cells,
            candidates,
        }
    }

    /// The cell of point `(lat, lon)`. Points outside the grid, and
    /// non-finite ones, are in no window and so in no disc.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "both offsets are checked to lie in [0, rows) and [0, cols) first"
    )]
    fn cell(&self, lat: f64, lon: f64) -> Cell<'_> {
        let r = (lat - self.lat0) * self.inv_dlat;
        let c = (lon - self.lon0) * self.inv_dlon;
        if r >= 0.0 && c >= 0.0 && r < self.rows as f64 && c < self.cols as f64 {
            match self.cells[r as usize * self.cols + c as usize] {
                EMPTY => Cell::Empty,
                code if code < MIXED => Cell::Interior(usize::from(code - 1)),
                code => Cell::Mixed(&self.candidates[usize::from(code - MIXED)]),
            }
        } else {
            Cell::Empty
        }
    }
}

/// The largest cosine over the latitude band `[lo_deg, hi_deg]`: cos is
/// unimodal on `[-90°, 90°]`, peaking at the equator.
fn cos_max(lo_deg: f64, hi_deg: f64) -> f64 {
    if lo_deg <= 0.0 && hi_deg >= 0.0 {
        1.0
    } else {
        lo_deg.abs().min(hi_deg.abs()).to_radians().cos()
    }
}

/// A summary: the derived `Debug` would print every cell.
impl fmt::Debug for CellTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = |pred: fn(u16) -> bool| self.cells.iter().filter(|&&c| pred(c)).count();
        f.debug_struct("CellTable")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("empty", &count(|c| c == EMPTY))
            .field("interior", &count(|c| c != EMPTY && c < MIXED))
            .field("mixed", &count(|c| c >= MIXED))
            .field("candidate_lists", &self.candidates.len())
            .finish()
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
    /// If `areas` is empty or `radius_km` is not a positive finite
    /// number.
    pub fn new(areas: Vec<Area>, radius_km: f64) -> Self {
        assert!(!areas.is_empty(), "area set cannot be empty");
        assert!(
            radius_km.is_finite() && radius_km > 0.0,
            "search radius must be positive and finite"
        );
        let centers: Vec<Point> = areas.iter().map(|a| a.center).collect();
        let geometry = PairGeometry::shared(&centers);
        let prefilter = radius_km * 1.05 + 1.0;
        let filters: Vec<AreaFilter> = centers
            .iter()
            .map(|&c| AreaFilter::new(c, prefilter))
            .collect();
        let cells = CellTable::new(&filters, radius_km, prefilter);
        Self {
            areas,
            radius_km,
            geometry,
            filters,
            cells,
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
    /// scale), and population counting needs all of them. The calls for
    /// one point come in ascending area order.
    ///
    /// Decision-identical to calling the scalar `assign` per point, but
    /// structured for columnar callers: one lookup in the build-once
    /// [`CellTable`] settles empty and interior cells with no
    /// trigonometry, and only points in mixed cells run the exact
    /// window → equirectangular gate → haversine path, over the cell's
    /// candidate areas alone.
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
        out.reserve(lats.len());
        for (k, (&lat, &lon)) in lats.iter().zip(lons.iter()).enumerate() {
            let best = match self.cells.cell(lat, lon) {
                Cell::Empty => None,
                Cell::Interior(i) => {
                    covered(k, i);
                    Some(i)
                }
                Cell::Mixed(candidates) => self.assign_exact(k, lat, lon, candidates, &mut covered),
            };
            #[expect(
                clippy::cast_possible_truncation,
                reason = "an area index is below the area count, a few dozen at most"
            )]
            out.push(best.map_or(-1, |i| i as i32));
        }
    }

    /// The exact path for point `k` over `candidates`: the nearest area
    /// within ε, calling `covered(k, i)` for every candidate within ε.
    /// The equirectangular gate and the haversine comparison are the
    /// same float expressions as the scalar `assign`.
    fn assign_exact(
        &self,
        k: usize,
        lat: f64,
        lon: f64,
        candidates: &[usize],
        covered: &mut impl FnMut(usize, usize),
    ) -> Option<usize> {
        let prefilter = self.radius_km * 1.05 + 1.0;
        let mut best: Option<(usize, f64)> = None;
        let mut point_trig: Option<TrigPoint> = None;
        let p = Point::new_unchecked(lat, lon);
        for &i in candidates {
            let f = &self.filters[i];
            // Conservative window: can only skip what the
            // equirectangular gate below would skip anyway.
            if (lat - f.lat).abs() > f.dlat_max || (lon - f.lon).abs() > f.dlon_max {
                continue;
            }
            if equirectangular_km(Point::new_unchecked(f.lat, f.lon), p) > prefilter {
                continue;
            }
            // The point's trigonometry is hoisted lazily: a point that
            // survives no window never pays for it.
            let pt = *point_trig.get_or_insert_with(|| TrigPoint::new(p));
            let d = f.trig.distance_km(&pt);
            if d <= self.radius_km {
                covered(k, i);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
        }
        best.map(|(i, _)| i)
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
    #[should_panic(expected = "search radius must be positive and finite")]
    fn infinite_radius_panics() {
        AreaSet::new(Scale::National.areas().to_vec(), f64::INFINITY);
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

    /// Checks `assign_batch` against brute force: every code against the
    /// scalar `assign`, and the whole `covered` sequence against an
    /// equirectangular-gate + `haversine_km` loop over every area.
    /// Returns how many points two or more discs cover.
    fn assert_batch_matches_brute_force(set: &AreaSet, lats: &[f64], lons: &[f64]) -> usize {
        let mut codes = Vec::new();
        let mut got = Vec::new();
        set.assign_batch(lats, lons, &mut codes, |k, a| got.push((k, a)));
        let prefilter = set.radius_km() * 1.05 + 1.0;
        let mut want = Vec::new();
        let mut overlapped = 0;
        for k in 0..lats.len() {
            let p = Point::new_unchecked(lats[k], lons[k]);
            let before = want.len();
            for (i, a) in set.areas().iter().enumerate() {
                if equirectangular_km(a.center, p) <= prefilter
                    && tweetmob_geo::haversine_km(a.center, p) <= set.radius_km()
                {
                    want.push((k, i));
                }
            }
            overlapped += usize::from(want.len() - before > 1);
            let batch = usize::try_from(codes[k]).ok();
            assert_eq!(batch, set.assign(p), "ε {} point {p:?}", set.radius_km());
        }
        if let Some(at) = got.iter().zip(&want).position(|(g, w)| g != w) {
            panic!(
                "ε {}: covered call {at} is {:?}, brute force {:?}",
                set.radius_km(),
                got[at],
                want[at]
            );
        }
        assert_eq!(got.len(), want.len(), "ε {}", set.radius_km());
        overlapped
    }

    /// Probe points for the cell table of `set`: exact cell edges and
    /// corners (and one ulp either side) through every area's window,
    /// rings at 0.97–1.03 ε (and exactly ε) around every centre, points
    /// in every overlap lens, points within 1.5 ε of every centre, and
    /// uniform points over the continent.
    fn table_probe_points(set: &AreaSet, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let t = &set.cells;
        let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
        let (mut lats, mut lons) = (Vec::new(), Vec::new());
        let mut push = |lat: f64, lon: f64| {
            for (la, lo) in [
                (lat, lon),
                (lat.next_up(), lon.next_down()),
                (lat.next_down(), lon.next_up()),
            ] {
                lats.push(la);
                lons.push(lo);
            }
        };
        let eps = set.radius_km();
        // A single-mixed-cell table has no edges (zero cells per degree).
        for f in set.filters.iter().filter(|_| t.inv_dlat > 0.0) {
            let rows = ((f.lat - f.dlat_max - t.lat0) * t.inv_dlat).floor()
                ..=((f.lat + f.dlat_max - t.lat0) * t.inv_dlat).ceil();
            let cols = ((f.lon - f.dlon_max - t.lon0) * t.inv_dlon).floor()
                ..=((f.lon + f.dlon_max - t.lon0) * t.inv_dlon).ceil();
            let mut row = *rows.start();
            while row <= *rows.end() {
                let lat = t.lat0 + row / t.inv_dlat;
                let mut col = *cols.start();
                while col <= *cols.end() {
                    let lon = t.lon0 + col / t.inv_dlon;
                    push(lat, lon);
                    push(lat, rng.range_f64(lon, lon + 1.0 / t.inv_dlon));
                    push(rng.range_f64(lat, lat + 1.0 / t.inv_dlat), lon);
                    col += 1.0;
                }
                row += 1.0;
            }
        }
        for a in set.areas() {
            for step in 0..72 {
                let bearing = f64::from(step) * 5.0 + rng.range_f64(0.0, 5.0);
                for frac in [
                    0.97, 0.98, 0.99, 0.995, 0.999, 1.0, 1.001, 1.005, 1.01, 1.02, 1.03,
                ] {
                    let p = tweetmob_geo::destination(a.center, bearing, frac * eps);
                    push(p.lat, p.lon);
                }
            }
            push(a.center.lat, a.center.lon);
            for _ in 0..400 {
                let p = tweetmob_geo::destination(
                    a.center,
                    rng.range_f64(0.0, 360.0),
                    rng.range_f64(0.0, 1.5 * eps),
                );
                push(p.lat, p.lon);
            }
            for b in set.areas() {
                let d = tweetmob_geo::haversine_km(a.center, b.center);
                if a.name < b.name && d < 2.0 * eps {
                    let mid = Point::new_unchecked(
                        (a.center.lat + b.center.lat) / 2.0,
                        (a.center.lon + b.center.lon) / 2.0,
                    );
                    for _ in 0..400 {
                        let p = tweetmob_geo::destination(
                            mid,
                            rng.range_f64(0.0, 360.0),
                            rng.range_f64(0.0, eps - d / 2.0 + 0.05 * eps),
                        );
                        push(p.lat, p.lon);
                    }
                }
            }
        }
        for _ in 0..5_000 {
            push(rng.range_f64(-45.0, -9.0), rng.range_f64(112.0, 155.0));
        }
        (lats, lons)
    }

    #[test]
    fn cell_table_matches_brute_force() {
        let sets = [
            (Scale::Metropolitan, 0.5),
            (Scale::Metropolitan, 2.0),
            (Scale::State, 25.0),
            (Scale::National, 50.0),
            (Scale::National, 200.0),
            (Scale::National, 1_000.0),
        ];
        for (seed, (scale, eps)) in (0..).zip(sets) {
            let set = AreaSet::of_scale_with_radius(scale, eps);
            let t = &set.cells;
            assert!(t.rows * t.cols <= MAX_CELLS, "{t:?}");
            assert!(
                t.cells.iter().any(|&c| c != EMPTY && c < MIXED),
                "{scale:?} ε {eps}: no interior cell: {t:?}"
            );
            assert!(
                t.cells.iter().any(|&c| c >= MIXED),
                "{scale:?} ε {eps}: no mixed cell: {t:?}"
            );
            let (lats, lons) = table_probe_points(&set, seed);
            let overlapped = assert_batch_matches_brute_force(&set, &lats, &lons);
            if scale == Scale::National && eps == 50.0 {
                // The Sydney/Wollongong lens (centres ~68 km apart).
                assert!(overlapped > 100, "{overlapped} lens points");
            }
        }
    }

    #[test]
    fn cell_table_near_a_pole_is_one_mixed_cell() {
        let polar = |name, lat, lon| Area {
            name,
            center: Point::new_unchecked(lat, lon),
            population: 1_000,
        };
        let set = AreaSet::new(
            vec![
                polar("A", -89.7, 10.0),
                polar("B", -88.9, 140.0),
                polar("C", -60.0, 0.0),
            ],
            50.0,
        );
        let t = &set.cells;
        assert_eq!((t.rows, t.cols, t.cells.as_slice()), (1, 1, &[MIXED][..]));
        assert_eq!(t.candidates, vec![Box::from([0, 1, 2])]);
        let (lats, lons) = table_probe_points(&set, 99);
        assert_batch_matches_brute_force(&set, &lats, &lons);
        // Non-finite coordinates are in no disc on either path.
        for set in [set, AreaSet::of_scale(Scale::National)] {
            let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let (mut lats, mut lons) = (Vec::new(), Vec::new());
            for a in odd {
                for (lat, lon) in [(a, 151.2093), (-33.8688, a), (a, a)] {
                    lats.push(lat);
                    lons.push(lon);
                }
            }
            let mut codes = Vec::new();
            set.assign_batch(&lats, &lons, &mut codes, |k, a| {
                panic!("point {k} in area {a}")
            });
            assert!(codes.iter().all(|&c| c == -1), "{codes:?}");
        }
    }

    #[test]
    fn cell_table_debug_is_a_summary() {
        let text = format!("{:?}", AreaSet::of_scale(Scale::National));
        let table = &text[text.find("CellTable").expect("table in Debug")..];
        assert!(table.len() < 200, "{table}");
        assert!(
            table.contains("interior: ") && table.contains("mixed: "),
            "{table}"
        );
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
