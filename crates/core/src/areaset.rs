//! Study scales and area sets with point-to-area assignment.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tweetmob_geo::{PairGeometry, Point, TrigPoint, EARTH_RADIUS_KM};
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
    /// Per-area precomputed assignment filters for the exact path.
    filters: Vec<AreaFilter>,
    /// Build-once lat/lon grid that resolves most points without
    /// trigonometry.
    cells: CellTable,
}

/// Per-area state precomputed once for the exact path of
/// `AreaSet::slot`: a conservative degree-space bounding window around
/// the disc of radius ε, plus the centre's hoisted trigonometry.
///
/// A point `p` is in the disc iff `haversine(c, p) ≤ ε`, that is iff
/// `sin²(Δφ/2) + cos φ_c · cos φ_p · sin²(Δλ/2) ≤ sin²(ε/2R)`. Both
/// terms are non-negative, so every point of the disc has
/// `|Δφ| ≤ ε/R`, and, with `cos φ_min` the cosine lower bound over that
/// latitude band, `sin(|Δλ|/2) ≤ sin(ε/2R) / √(cos φ_c · cos φ_min)`.
/// Both half-windows are inflated by 0.1 % to absorb rounding, so a
/// point outside the window is outside the disc. Survivors run the
/// exact haversine (via [`TrigPoint`], bit-identical by its contract),
/// which makes every slot decision-identical to the scalar
/// `AreaSet::assign`. The window also bounds the area's reach in the
/// [`CellTable`].
#[derive(Debug, Clone)]
struct AreaFilter {
    lat: f64,
    lon: f64,
    /// Latitude half-window, degrees.
    dlat_max: f64,
    /// Longitude half-window, degrees; `INFINITY` when the latitude
    /// band reaches a pole or the window crosses ±180°, where the
    /// haversine alone decides.
    dlon_max: f64,
    trig: TrigPoint,
}

impl AreaFilter {
    fn new(center: Point, radius_km: f64) -> Self {
        // The disc's angular radius ε/R.
        let angle = radius_km / EARTH_RADIUS_KM;
        let dlat_max = angle.to_degrees() * 1.001;
        let (lo, hi) = (center.lat - dlat_max, center.lat + dlat_max);
        // cos is unimodal on [-90°, 90°], so its minimum over the band is
        // at an endpoint.
        let cos_min = lo.to_radians().cos().min(hi.to_radians().cos());
        let sin_half_dlon = (angle / 2.0).sin() / (center.lat.to_radians().cos() * cos_min).sqrt();
        let dlon_max = 2.0 * sin_half_dlon.asin().to_degrees() * 1.001;
        let bounded = lo > -90.0
            && hi < 90.0
            && sin_half_dlon < 1.0
            && center.lon - dlon_max > -180.0
            && center.lon + dlon_max < 180.0;
        Self {
            lat: center.lat,
            lon: center.lon,
            dlat_max,
            dlon_max: if bounded { dlon_max } else { f64::INFINITY },
            trig: TrigPoint::new(center),
        }
    }
}

/// Most areas an [`AreaSet`] holds, so that its slots `0..=MAX_AREAS`
/// fit the one `u64` covered set of `AreaSet::slot`.
const MAX_AREAS: usize = MIXED as usize - 1;

/// Most cells a [`CellTable`] holds: 2¹⁹ `u16` codes, 1 MiB.
const MAX_CELLS: usize = 1 << 19;

/// Sub-cells per side of a mixed cell's sub-grid.
const SUB: usize = 4;

/// Degrees by which every cell and sub-cell is widened on each side when
/// it is classified, so that the rounding of the index in
/// [`CellTable::code`] cannot carry a point into a cell whose kind does
/// not hold for it.
const CELL_PAD_DEG: f64 = 1e-9;

/// Kilometres by which every distance bound is widened, absorbing the
/// rounding of the haversine expressions.
const BOUND_TOL_KM: f64 = 1e-6;

/// Code of an empty cell or sub-cell. Codes `1..MIXED` are interior
/// cells of area `code - 1`, so an interior code is that area's slot.
/// A cell coded `MIXED..` is mixed, with sub-grid `code - MIXED`; a
/// sub-cell coded `MIXED..` is mixed, with candidate list
/// `code - MIXED`.
const EMPTY: u16 = 0;
const MIXED: u16 = 64;

/// A build-once lat/lon grid over the union of the [`AreaFilter`]
/// windows, padded by two cells, that tells `AreaSet::slot` which
/// areas a point can be within ε of.
///
/// The outer ring of cells is never classified, so it is always empty:
/// [`CellTable::code`] clamps a point's row and column to the grid, and
/// a point outside the grid, or a non-finite one, lands in that ring.
///
/// Each cell, and each of the `SUB × SUB` sub-cells of a mixed cell, is
/// one of three kinds:
/// - *empty*: no disc reaches it;
/// - *interior(i)*: every point of it is within ε of area `i`, and no
///   other disc reaches it;
/// - *mixed*: for a cell, a sub-grid; for a sub-cell, an ascending list
///   of candidate areas for the exact path.
///
/// The classification is conservative, so every slot stays
/// decision-identical to the exact one. For a cell with centre `m`,
/// half-height `h` and half-width `w` (radians, padded by
/// [`CELL_PAD_DEG`]), a point `p` of the cell is reached from `m` by a
/// meridian arc then a parallel arc of total length at most
/// `r = R·(h + w·cos_max)`, with `cos_max` the largest cosine over the
/// cell's latitude band. The triangle inequality bounds the distance
/// from a centre `c` to `p` by `d(c, m) ± r`, widened by
/// [`BOUND_TOL_KM`]. An area is dropped from a cell only when its lower
/// bound exceeds ε; a cell is interior only when it has one candidate
/// and that candidate's upper bound is below ε. A sub-cell is classified
/// by the same bound over the candidates of its cell; a disc that covers
/// the cell covers each sub-cell, so a cell that two discs cover is
/// mixed in every sub-cell with the cell's candidates.
///
/// If a window is unbounded (it reaches a pole or crosses ±180°), or the
/// grid cannot be encoded, the table is a single mixed cell that lists
/// every area.
#[derive(Clone)]
struct CellTable {
    /// South-west corner of the grid, degrees.
    lat0: f64,
    lon0: f64,
    /// Sub-cells per degree of latitude and of longitude: the fine grid
    /// that [`CellTable::code`] indexes, `SUB` times finer than the
    /// cells.
    inv_dlat: f64,
    inv_dlon: f64,
    /// Cells per column and per row.
    rows: usize,
    cols: usize,
    /// `SUB · rows - 1` and `SUB · cols - 1`, the caps of the fine row
    /// and column in [`CellTable::code`].
    last_row: f64,
    last_col: f64,
    /// One code per cell, row-major from the south-west corner.
    cells: Vec<u16>,
    /// One row-major `SUB × SUB` block of sub-cell codes per mixed cell.
    sub_cells: Vec<u16>,
    /// Distinct candidate lists of the mixed sub-cells, each ascending.
    candidates: Vec<Box<[usize]>>,
}

/// A lat/lon grid of `dlat × dlon` cells (degrees) from the south-west
/// corner `(lat0, lon0)`.
#[derive(Clone, Copy)]
struct Grid {
    lat0: f64,
    lon0: f64,
    dlat: f64,
    dlon: f64,
}

impl Grid {
    /// The centre of the cells of `row`, at longitude 0, and the reach
    /// `r` of each of those cells, padded by [`CELL_PAD_DEG`].
    fn row(&self, row: usize) -> (TrigPoint, f64) {
        let h_rad = (self.dlat / 2.0 + CELL_PAD_DEG).to_radians();
        let w_rad = (self.dlon / 2.0 + CELL_PAD_DEG).to_radians();
        let lat_lo = self.lat0 + row as f64 * self.dlat - CELL_PAD_DEG;
        let lat_hi = self.lat0 + (row + 1) as f64 * self.dlat + CELL_PAD_DEG;
        let mid = TrigPoint::new(Point::new_unchecked(
            self.lat0 + (row as f64 + 0.5) * self.dlat,
            0.0,
        ));
        (
            mid,
            EARTH_RADIUS_KM * (h_rad + w_rad * cos_max(lat_lo, lat_hi)),
        )
    }

    /// The centre of the cell at `col` in the row whose centre is `mid`.
    fn centre(&self, mid: &TrigPoint, col: usize) -> TrigPoint {
        TrigPoint {
            lon_rad: (self.lon0 + (col as f64 + 0.5) * self.dlon).to_radians(),
            ..*mid
        }
    }
}

/// How the disc of radius `radius_km` around `f` meets a cell with
/// centre `mid` and reach `reach_km`: `None` when the disc misses the
/// cell, `Some(true)` when it covers all of it, `Some(false)` when
/// neither bound settles it.
fn meets(f: &AreaFilter, mid: &TrigPoint, reach_km: f64, radius_km: f64) -> Option<bool> {
    let d_km = f.trig.distance_km(mid);
    if d_km - reach_km - BOUND_TOL_KM > radius_km {
        None
    } else {
        Some(d_km + reach_km + BOUND_TOL_KM < radius_km)
    }
}

/// The candidate lists of the mixed sub-cells, each stored once.
#[derive(Default)]
struct CandidateLists {
    lists: Vec<Box<[usize]>>,
    codes: BTreeMap<Box<[usize]>, u16>,
}

impl CandidateLists {
    /// The code of a sub-cell that the discs of `reached` reach, each
    /// ascending area flagged when its disc covers the whole sub-cell:
    /// empty for none, the slot of one covering disc, and otherwise the
    /// mixed code of the list of those areas. `None` when the codes run
    /// out.
    fn code(&mut self, reached: &[(usize, bool)]) -> Option<u16> {
        match *reached {
            [] => Some(EMPTY),
            [(i, true)] => u16::try_from(i + 1).ok(),
            _ => {
                let list: Box<[usize]> = reached.iter().map(|&(i, _)| i).collect();
                if let Some(&code) = self.codes.get(&list) {
                    return Some(code);
                }
                let code = MIXED.checked_add(u16::try_from(self.lists.len()).ok()?)?;
                self.lists.push(list.clone());
                self.codes.insert(list, code);
                Some(code)
            }
        }
    }
}

impl CellTable {
    /// The table whose one mixed cell lists all `n` areas in every
    /// sub-cell: with zero cells per degree every point falls in it, and
    /// the exact path rejects a non-finite one (its haversine is NaN).
    fn single_mixed(n: usize) -> Self {
        Self {
            lat0: 0.0,
            lon0: 0.0,
            inv_dlat: 0.0,
            inv_dlon: 0.0,
            rows: 1,
            cols: 1,
            last_row: 0.0,
            last_col: 0.0,
            cells: vec![MIXED],
            sub_cells: vec![MIXED; SUB * SUB],
            candidates: vec![(0..n).collect()],
        }
    }

    /// Sizes the grid, then classifies the cells of every area's window
    /// and the sub-cells of every mixed cell.
    fn new(filters: &[AreaFilter], radius_km: f64) -> Self {
        Self::build(filters, radius_km).unwrap_or_else(|| Self::single_mixed(filters.len()))
    }

    /// [`CellTable::new`], or `None` for a single mixed cell.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "grid sizes are bounded by MAX_CELLS and area indices by MAX_AREAS before any cast"
    )]
    fn build(filters: &[AreaFilter], radius_km: f64) -> Option<Self> {
        if filters.iter().any(|f| !f.dlon_max.is_finite()) {
            return None;
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
                ((lat_hi - lat_lo) / dlat).ceil() + 4.0,
                ((lon_hi - lon_lo) / dlon).ceil() + 4.0,
            )
        };
        let (mut rows_f, mut cols_f) = shape(dlat, dlon);
        while rows_f * cols_f > MAX_CELLS as f64 {
            dlat *= 1.25;
            dlon *= 1.25;
            (rows_f, cols_f) = shape(dlat, dlon);
        }
        let (rows, cols) = (rows_f as usize, cols_f as usize);
        let (lat0, lon0) = (lat_lo - 2.0 * dlat, lon_lo - 2.0 * dlon);
        if lat0 <= -90.0 || lat0 + rows as f64 * dlat >= 90.0 {
            return None;
        }
        let grid = Grid {
            lat0,
            lon0,
            dlat,
            dlon,
        };

        // One packed `cell << 32 | area << 1 | covers` word per
        // (cell, area) pair that survives the lower bound. Each area
        // visits only the cells of its window, plus one on every side,
        // and never the outer ring.
        let span = |lo: f64, hi: f64, origin: f64, step: f64, len: usize| {
            let first = ((lo - origin) / step).floor() - 1.0;
            let last = ((hi - origin) / step).floor() + 1.0;
            (first.max(1.0) as usize)..=(last.min(len as f64 - 2.0) as usize)
        };
        let mut hits: Vec<u64> = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            let lon_span = span(f.lon - f.dlon_max, f.lon + f.dlon_max, lon0, dlon, cols);
            for row in span(f.lat - f.dlat_max, f.lat + f.dlat_max, lat0, dlat, rows) {
                let (mid, reach_km) = grid.row(row);
                for col in lon_span.clone() {
                    if let Some(covers) = meets(f, &grid.centre(&mid, col), reach_km, radius_km) {
                        let cell = row * cols + col;
                        hits.push((cell as u64) << 32 | (i as u64) << 1 | u64::from(covers));
                    }
                }
            }
        }
        hits.sort_unstable();

        // Each mixed cell gets the next sub-grid, classified over the
        // cell's candidates on a grid SUB times finer.
        let fine = Grid {
            dlat: dlat / SUB as f64,
            dlon: dlon / SUB as f64,
            ..grid
        };
        let mut cells = vec![EMPTY; rows * cols];
        let mut sub_cells: Vec<u16> = Vec::new();
        let mut lists = CandidateLists::default();
        let (mut reached, mut sub_reached) = (Vec::new(), Vec::new());
        for group in hits.chunk_by(|a, b| a >> 32 == b >> 32) {
            let cell = (group[0] >> 32) as usize;
            reached.clear();
            reached.extend(
                group
                    .iter()
                    .map(|h| ((h >> 1 & 0x7fff_ffff) as usize, h & 1 == 1)),
            );
            if let [(i, true)] = reached[..] {
                cells[cell] = u16::try_from(i + 1).ok()?;
                continue;
            }
            cells[cell] = MIXED.checked_add(u16::try_from(sub_cells.len() / (SUB * SUB)).ok()?)?;
            if reached.iter().filter(|&&(_, covers)| covers).count() > 1 {
                let code = lists.code(&reached)?;
                sub_cells.extend([code; SUB * SUB]);
                continue;
            }
            let (row, col) = (cell / cols, cell % cols);
            for fine_row in row * SUB..(row + 1) * SUB {
                let (mid, reach_km) = fine.row(fine_row);
                for fine_col in col * SUB..(col + 1) * SUB {
                    let m = fine.centre(&mid, fine_col);
                    sub_reached.clear();
                    sub_reached.extend(reached.iter().filter_map(|&(i, covers)| {
                        let covers = covers || meets(&filters[i], &m, reach_km, radius_km)?;
                        Some((i, covers))
                    }));
                    sub_cells.push(lists.code(&sub_reached)?);
                }
            }
        }
        Some(Self {
            lat0,
            lon0,
            inv_dlat: 1.0 / fine.dlat,
            inv_dlon: 1.0 / fine.dlon,
            rows,
            cols,
            last_row: (SUB * rows - 1) as f64,
            last_col: (SUB * cols - 1) as f64,
            cells,
            sub_cells,
            candidates: lists.lists,
        })
    }

    /// The code of the sub-cell, or else of the cell, holding
    /// `(lat, lon)`. The fine row and column have no branch: each offset
    /// is capped at the last fine row or column in floating point (a NaN
    /// offset takes the cap) and then truncated by a saturating cast (a
    /// negative one becomes 0), so a point outside the grid, and a
    /// non-finite one, reads the empty outer ring.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int casts saturate, and both offsets are capped inside the grid"
    )]
    fn code(&self, lat: f64, lon: f64) -> u16 {
        let row = ((lat - self.lat0) * self.inv_dlat).min(self.last_row) as u32;
        let col = ((lon - self.lon0) * self.inv_dlon).min(self.last_col) as u32;
        self.code_at(row as usize, col as usize)
    }

    /// The code of the sub-cell at fine `row` and `col`, or else of the
    /// cell holding it: their quotients by `SUB` pick the cell, and only
    /// a mixed cell reads its sub-grid.
    #[inline]
    fn code_at(&self, row: usize, col: usize) -> u16 {
        let code = self.cells[row / SUB * self.cols + col / SUB];
        if code < MIXED {
            return code;
        }
        self.sub_cells[usize::from(code - MIXED) * SUB * SUB + row % SUB * SUB + col % SUB]
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
        // Empty, interior and mixed codes.
        let kinds = |codes: &[u16]| {
            let mut n = [0usize; 3];
            for &c in codes {
                n[usize::from(c != EMPTY) + usize::from(c >= MIXED)] += 1;
            }
            n
        };
        let ([empty, interior, mixed], [sub_empty, sub_interior, sub_mixed]) =
            (kinds(&self.cells), kinds(&self.sub_cells));
        f.debug_struct("CellTable")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("empty", &empty)
            .field("interior", &interior)
            .field("mixed", &mixed)
            .field("sub_empty", &sub_empty)
            .field("sub_interior", &sub_interior)
            .field("sub_mixed", &sub_mixed)
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
    pub(crate) fn of_scale_with_radius(scale: Scale, radius_km: f64) -> Self {
        Self::new(scale.areas().to_vec(), radius_km)
    }

    /// Builds a custom area set.
    ///
    /// # Panics
    ///
    /// If `areas` is empty or holds more than 63 areas, or if
    /// `radius_km` is not a positive finite number. With at most 63
    /// areas, a point's slot and every area covering it fit one `u64`.
    pub fn new(areas: Vec<Area>, radius_km: f64) -> Self {
        assert!(!areas.is_empty(), "area set cannot be empty");
        assert!(
            areas.len() <= MAX_AREAS,
            "area set holds at most {MAX_AREAS} areas, not {}",
            areas.len()
        );
        assert!(
            radius_km.is_finite() && radius_km > 0.0,
            "search radius must be positive and finite"
        );
        let centers: Vec<Point> = areas.iter().map(|a| a.center).collect();
        let geometry = PairGeometry::shared(&centers);
        let filters: Vec<AreaFilter> = centers
            .iter()
            .map(|&c| AreaFilter::new(c, radius_km))
            .collect();
        let cells = CellTable::new(&filters, radius_km);
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
        // Each unordered pair once, in row-major i < j order.
        let total: f64 = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| self.geometry.distance(i, j))
            .sum();
        total / (n * (n - 1) / 2) as f64
    }

    /// Assigns a point to the nearest area whose centre is within ε
    /// (`haversine_km ≤ ε`), or `None` when no area covers it: the scalar
    /// reference `AreaSet::slot` is checked against.
    #[cfg(test)]
    pub(crate) fn assign(&self, p: Point) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, a) in self.areas.iter().enumerate() {
            let d = tweetmob_geo::haversine_km(a.center, p);
            if d <= self.radius_km && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The *slot* of point `(lat, lon)`: `a + 1` for the nearest area
    /// `a` within ε, `0` when no area covers it. Sets the bit of the
    /// returned slot in `covered`, and the bit of every other area within
    /// ε of the point: discs overlap wherever two centres are less than
    /// 2ε apart (Sydney and Wollongong at national scale), and
    /// population counting needs all of them. Adds 1 to `exact_path`
    /// when the point takes the exact path.
    ///
    /// A point is within ε of an area iff `haversine_km(centre, p) ≤ ε`;
    /// this is the only membership rule. One or two loads from the
    /// build-once cell table settle the points of empty and interior
    /// cells and sub-cells, whose code is the slot itself, with no
    /// trigonometry. Only points in mixed sub-cells run the degree
    /// window and the exact haversine, over the sub-cell's candidate
    /// areas alone.
    #[inline]
    pub(crate) fn slot(
        &self,
        lat: f64,
        lon: f64,
        covered: &mut u64,
        exact_path: &mut u64,
    ) -> usize {
        let code = self.cells.code(lat, lon);
        let slot = if code < MIXED {
            usize::from(code)
        } else {
            *exact_path += 1;
            let candidates = &self.cells.candidates[usize::from(code - MIXED)];
            self.assign_exact(lat, lon, candidates, covered)
        };
        *covered |= 1 << slot;
        slot
    }

    /// The exact path over `candidates`: the slot of the nearest area
    /// within ε (`0` for none), setting the bit of every candidate
    /// within ε in `covered`. The haversine comparison is the same float
    /// expression as the scalar `assign`.
    fn assign_exact(&self, lat: f64, lon: f64, candidates: &[usize], covered: &mut u64) -> usize {
        let mut best: Option<(usize, f64)> = None;
        let mut point_trig: Option<TrigPoint> = None;
        let p = Point::new_unchecked(lat, lon);
        for &i in candidates {
            let f = &self.filters[i];
            // Conservative window: can only skip what the haversine
            // below would reject anyway.
            if (lat - f.lat).abs() > f.dlat_max || (lon - f.lon).abs() > f.dlon_max {
                continue;
            }
            // The point's trigonometry is hoisted lazily: a point that
            // survives no window never pays for it.
            let pt = *point_trig.get_or_insert_with(|| TrigPoint::new(p));
            let d = f.trig.distance_km(&pt);
            if d <= self.radius_km {
                let slot = i + 1;
                *covered |= 1 << slot;
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((slot, d));
                }
            }
        }
        best.map_or(0, |(slot, _)| slot)
    }

    /// Census populations as `f64`, aligned with [`AreaSet::areas`].
    pub fn census_populations(&self) -> Vec<f64> {
        self.areas.iter().map(|a| a.population as f64).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
    #[should_panic(expected = "area set holds at most 63 areas, not 64")]
    fn sixty_four_areas_panic() {
        AreaSet::new(vec![Scale::National.areas()[0]; 64], 10.0);
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

    /// Runs every point through `AreaSet::slot`, each with a fresh
    /// covered set: its nearest area and every area whose bit it set,
    /// ascending.
    fn classify(set: &AreaSet, lats: &[f64], lons: &[f64]) -> Vec<(Option<usize>, Vec<usize>)> {
        lats.iter()
            .zip(lons)
            .map(|(&lat, &lon)| {
                let (mut covered, mut exact_path) = (0, 0);
                let slot = set.slot(lat, lon, &mut covered, &mut exact_path);
                assert_eq!(covered >> slot & 1, 1, "slot {slot} bit");
                let areas = (1..=set.len())
                    .filter(|&s| covered >> s & 1 == 1)
                    .map(|s| s - 1)
                    .collect();
                (slot.checked_sub(1), areas)
            })
            .collect()
    }

    #[test]
    fn slots_match_scalar_everywhere() {
        // A coarse sweep over the whole continent at every scale: the
        // slot must make the identical decision for every point,
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
            for (k, (nearest, _)) in classify(&set, &lats, &lons).into_iter().enumerate() {
                let p = Point::new_unchecked(lats[k], lons[k]);
                assert_eq!(nearest, set.assign(p), "{scale:?} point {p:?}");
            }
        }
    }

    /// Checks `AreaSet::slot` against brute force, point by point: the
    /// nearest area against the scalar `assign`, and the set bits against
    /// a `haversine_km ≤ ε` loop over every area.
    /// Returns how many points two or more discs cover.
    fn assert_slots_match_brute_force(set: &AreaSet, lats: &[f64], lons: &[f64]) -> usize {
        let mut overlapped = 0;
        for (k, (nearest, got)) in classify(set, lats, lons).into_iter().enumerate() {
            let p = Point::new_unchecked(lats[k], lons[k]);
            let want: Vec<usize> = (0..set.len())
                .filter(|&i| {
                    tweetmob_geo::haversine_km(set.areas()[i].center, p) <= set.radius_km()
                })
                .collect();
            assert_eq!(got, want, "ε {} point {k} {p:?}", set.radius_km());
            // `assign` is the nearest of `want`, so only a point that two
            // or more discs cover needs it.
            let want_nearest = match want[..] {
                [] => None,
                [i] => Some(i),
                _ => {
                    overlapped += 1;
                    set.assign(p)
                }
            };
            assert_eq!(nearest, want_nearest, "ε {} point {p:?}", set.radius_km());
        }
        overlapped
    }

    /// Probe points for the cell table of `set`: exact cell edges and
    /// corners (and one ulp either side) through every area's window,
    /// the same for every sub-cell edge and corner of a mixed cell that
    /// parts two codes, rings at 0.97–1.03 ε (and exactly ε) around every centre,
    /// points in every overlap lens, points within 1.5 ε of every centre,
    /// and uniform points over the continent.
    pub(crate) fn table_probe_points(set: &AreaSet, seed: u64) -> (Vec<f64>, Vec<f64>) {
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
        // Cells per degree: the table indexes sub-cells, SUB times finer.
        // A single-mixed-cell table has no edges (zero cells per degree).
        let (inv_dlat, inv_dlon) = (t.inv_dlat / SUB as f64, t.inv_dlon / SUB as f64);
        for f in set.filters.iter().filter(|_| t.inv_dlat > 0.0) {
            let rows = ((f.lat - f.dlat_max - t.lat0) * inv_dlat).floor()
                ..=((f.lat + f.dlat_max - t.lat0) * inv_dlat).ceil();
            let cols = ((f.lon - f.dlon_max - t.lon0) * inv_dlon).floor()
                ..=((f.lon + f.dlon_max - t.lon0) * inv_dlon).ceil();
            let mut row = *rows.start();
            while row <= *rows.end() {
                let lat = t.lat0 + row / inv_dlat;
                let mut col = *cols.start();
                while col <= *cols.end() {
                    let lon = t.lon0 + col / inv_dlon;
                    push(lat, lon);
                    push(lat, rng.range_f64(lon, lon + 1.0 / inv_dlon));
                    push(rng.range_f64(lat, lat + 1.0 / inv_dlat), lon);
                    col += 1.0;
                }
                row += 1.0;
            }
        }
        // Every sub-cell edge and corner of a mixed cell, its border
        // included, that parts two codes: where the codes on both sides
        // agree, the rounding of the lookup cannot change the answer.
        // Mixed cells are never in the outer ring, so each neighbour
        // below and to the left is on the grid; a single-mixed-cell
        // table has no sub-cell edges.
        let mixed = (0..t.cells.len()).filter(|&c| t.cells[c] >= MIXED && t.inv_dlat > 0.0);
        for cell in mixed {
            let (row, col) = (cell / t.cols * SUB, cell % t.cols * SUB);
            for fine_row in row..=row + SUB {
                let lat = t.lat0 + fine_row as f64 / t.inv_dlat;
                for fine_col in col..=col + SUB {
                    let lon = t.lon0 + fine_col as f64 / t.inv_dlon;
                    let here = t.code_at(fine_row, fine_col);
                    let below = t.code_at(fine_row - 1, fine_col);
                    let left = t.code_at(fine_row, fine_col - 1);
                    let diagonal = t.code_at(fine_row - 1, fine_col - 1);
                    if here != below || here != left || here != diagonal {
                        push(lat, lon);
                    }
                    if here != below && fine_col < col + SUB {
                        push(lat, rng.range_f64(lon, lon + 1.0 / t.inv_dlon));
                    }
                    if here != left && fine_row < row + SUB {
                        push(rng.range_f64(lat, lat + 1.0 / t.inv_dlat), lon);
                    }
                }
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
            let overlapped = assert_slots_match_brute_force(&set, &lats, &lons);
            if scale == Scale::National && eps == 50.0 {
                // The Sydney/Wollongong lens (centres ~68 km apart).
                assert!(overlapped > 100, "{overlapped} lens points");
            }
        }
    }

    #[test]
    fn national_table_holds_every_kind_of_sub_cell() {
        let t = &AreaSet::of_scale(Scale::National).cells;
        let mixed = t.cells.iter().filter(|&&c| c >= MIXED).count();
        assert_eq!(t.sub_cells.len(), SUB * SUB * mixed, "{t:?}");
        for (kind, holds) in [
            ("empty", (|c| c == EMPTY) as fn(u16) -> bool),
            ("interior", |c| c != EMPTY && c < MIXED),
            ("mixed", |c| c >= MIXED),
        ] {
            assert!(
                t.sub_cells.iter().any(|&c| holds(c)),
                "no {kind} sub-cell: {t:?}"
            );
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
        assert_slots_match_brute_force(&set, &lats, &lons);
        // Non-finite coordinates are in no disc, through the empty ring of
        // a grid and through the exact path of a single mixed cell.
        for set in [set, AreaSet::of_scale(Scale::National)] {
            let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let (mut lats, mut lons) = (Vec::new(), Vec::new());
            for a in odd {
                for (lat, lon) in [(a, 151.2093), (-33.8688, a), (a, a)] {
                    lats.push(lat);
                    lons.push(lon);
                }
            }
            let slots = classify(&set, &lats, &lons);
            assert!(slots.iter().all(|s| *s == (None, Vec::new())), "{slots:?}");
        }
    }

    #[test]
    fn points_outside_the_grid_read_the_empty_ring() {
        let set = AreaSet::of_scale(Scale::National);
        let t = &set.cells;
        let ring = (0..t.rows * t.cols).filter(|c| {
            [0, t.rows - 1].contains(&(c / t.cols)) || [0, t.cols - 1].contains(&(c % t.cols))
        });
        assert!(ring.clone().all(|c| t.cells[c] == EMPTY), "{t:?}");
        let (lat_hi, lon_hi) = (
            t.lat0 + (SUB * t.rows) as f64 / t.inv_dlat,
            t.lon0 + (SUB * t.cols) as f64 / t.inv_dlon,
        );
        for (lat, lon) in [
            (t.lat0 - 1.0, -33.8688),
            (-33.8688, t.lon0 - 1e-9),
            (lat_hi, 151.2093),
            (-33.8688, lon_hi + 50.0),
            (-90.0, -180.0),
            (90.0, 180.0),
            (f64::MAX, f64::MIN),
        ] {
            assert_eq!(t.code(lat, lon), EMPTY, "({lat}, {lon})");
        }
        // Sydney's centre is interior: its code is its slot.
        let sydney = set.areas()[0].center;
        assert_eq!(t.code(sydney.lat, sydney.lon), 1);
    }

    #[test]
    fn discs_wrap_across_the_antimeridian() {
        let fiji = |name, lat, lon| Area {
            name,
            center: Point::new_unchecked(lat, lon),
            population: 1_000,
        };
        let set = AreaSet::new(
            vec![fiji("Suva", -18.14, 178.44), fiji("Rabi", -16.8, 179.98)],
            50.0,
        );
        let t = &set.cells;
        assert_eq!((t.rows, t.cols, t.cells.as_slice()), (1, 1, &[MIXED][..]));
        let (lats, lons) = table_probe_points(&set, 7);
        assert_slots_match_brute_force(&set, &lats, &lons);
        // 13 km east of Rabi's centre, on the other side of ±180°.
        assert_eq!(
            classify(&set, &[-16.8], &[-179.9]),
            vec![(Some(1), vec![1])]
        );
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
    fn slots_match_scalar_on_random_points() {
        let set = AreaSet::of_scale(Scale::State);
        for seed in 0..48 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let n = rng.next_below(80);
            let lats: Vec<f64> = (0..n).map(|_| rng.range_f64(-55.0, -8.0)).collect();
            let lons: Vec<f64> = (0..n).map(|_| rng.range_f64(110.0, 160.0)).collect();
            for (k, (nearest, _)) in classify(&set, &lats, &lons).into_iter().enumerate() {
                let scalar = set.assign(Point::new_unchecked(lats[k], lons[k]));
                assert_eq!(nearest, scalar, "seed {seed}, point {k}");
            }
        }
    }

    #[test]
    fn random_area_sets_match_brute_force() {
        // Up to 63 areas, and 63 in every fourth set, so the covered
        // set's top bit is in use, and radii from 10 m to 2,000 km, so
        // discs range from isolated to all overlapping.
        let mut top_bit = false;
        for seed in 0..64 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let len = if seed % 4 == 0 {
                MAX_AREAS
            } else {
                1 + rng.next_below(MAX_AREAS)
            };
            let areas: Vec<Area> = (0..len)
                .map(|_| Area {
                    name: "area",
                    center: Point::new_unchecked(
                        rng.range_f64(-44.0, -10.0),
                        rng.range_f64(113.0, 154.0),
                    ),
                    population: 1,
                })
                .collect();
            let set = AreaSet::new(areas, rng.range_f64(0.01, 2_000.0));
            let n = 1 + rng.next_below(200);
            let lats: Vec<f64> = (0..n).map(|_| rng.range_f64(-46.0, -8.0)).collect();
            let lons: Vec<f64> = (0..n).map(|_| rng.range_f64(110.0, 156.0)).collect();
            assert_slots_match_brute_force(&set, &lats, &lons);
            top_bit |= classify(&set, &lats, &lons)
                .iter()
                .any(|(_, areas)| areas.contains(&(MAX_AREAS - 1)));
        }
        assert!(top_bit, "no point in area {}", MAX_AREAS - 1);
    }

    #[test]
    fn census_populations_align_with_areas() {
        let set = AreaSet::of_scale(Scale::State);
        assert_eq!(set.census_populations().len(), 20);
        assert_eq!(set.census_populations()[0], 4_757_000.0); // Sydney
    }
}
