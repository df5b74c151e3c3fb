//! Columnar geometry cache: per-point trigonometry and a build-once
//! pairwise-distance structure shared across the model-fitting path.
//!
//! Every mobility model in the workspace consumes the same O(n²) pair
//! geometry — distances between fixed area centres, and per-origin
//! distance rankings for the intervening-population term. Before this
//! module each consumer rebuilt that geometry with scalar
//! [`haversine_km`](crate::haversine_km) calls; [`PairGeometry`] builds it once (via the
//! [`TrigPoint`] kernel, which hoists the per-point trigonometry out of
//! the pair loop) and is cheap to share behind an [`Arc`].
//!
//! **Determinism contract**: [`TrigPoint::distance_km`] evaluates the
//! *same* floating-point expression as [`haversine_km`](crate::haversine_km), operation for
//! operation, on precomputed `lat.to_radians()` / `lon.to_radians()` /
//! `cos(lat)` values — so every distance in the cache is bit-identical
//! to the scalar path it replaces; the tests build the same cache from
//! per-pair [`haversine_km`](crate::haversine_km) distances and assert both agree to the bit.
//!
//! Observability: the `cache/pairgeo/build` span times each build.

#[cfg(test)]
use crate::distance::haversine_km;
use crate::distance::EARTH_RADIUS_KM;
use crate::point::Point;
use std::sync::Arc;

/// A point with its trigonometry precomputed: radian coordinates plus
/// the cosine of the latitude.
///
/// Pairwise distance through [`TrigPoint::distance_km`] then needs only
/// two `sin` calls and one `asin` per pair instead of haversine's four
/// degree→radian conversions and two cosines on top — while producing
/// bit-identical output (the hoisted values are exactly the ones the
/// scalar formula computes internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrigPoint {
    /// Latitude in radians (`lat.to_radians()`).
    pub lat_rad: f64,
    /// Longitude in radians (`lon.to_radians()`).
    pub lon_rad: f64,
    /// `cos(lat)`, the factor haversine applies to the longitude term.
    pub cos_lat: f64,
}

impl TrigPoint {
    /// Precomputes the trigonometry of one point.
    #[must_use]
    pub fn new(p: Point) -> Self {
        let lat_rad = p.lat_rad();
        Self {
            lat_rad,
            lon_rad: p.lon_rad(),
            cos_lat: lat_rad.cos(),
        }
    }

    /// Great-circle distance to `other`, km — bit-identical to
    /// [`haversine_km`](crate::haversine_km) on the originating points.
    ///
    /// This must stay the exact expression from `distance.rs` (same
    /// operations, same association) with the per-point factors
    /// substituted; any "faster" reformulation (law of cosines, one
    /// `acos`) changes low bits and breaks the cache's bit-equality
    /// contract.
    #[inline]
    #[must_use]
    pub fn distance_km(&self, other: &TrigPoint) -> f64 {
        let dlat = other.lat_rad - self.lat_rad;
        let dlon = other.lon_rad - self.lon_rad;
        let sin_dlat = (dlat / 2.0).sin();
        let sin_dlon = (dlon / 2.0).sin();
        let h = sin_dlat * sin_dlat + self.cos_lat * other.cos_lat * sin_dlon * sin_dlon;
        2.0 * EARTH_RADIUS_KM * h.clamp(0.0, 1.0).sqrt().asin()
    }
}

/// Batch pairwise-distance kernel: the upper triangle (`i < j`,
/// row-major) of the distance matrix over `points`, via [`TrigPoint`].
///
/// Output is bit-identical to calling [`haversine_km`](crate::haversine_km) per pair (the
/// tests compare it against that scalar reference), at roughly a third
/// of the transcendental work — the per-point trigonometry is computed
/// n times instead of n·(n−1) times.
#[must_use]
fn pairwise_km(points: &[Point]) -> Vec<f64> {
    let trig: Vec<TrigPoint> = points.iter().copied().map(TrigPoint::new).collect();
    let n = points.len();
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, a) in trig.iter().enumerate() {
        for b in &trig[i + 1..] {
            out.push(a.distance_km(b));
        }
    }
    out
}

/// Scalar reference for [`pairwise_km`]: the same upper triangle via
/// per-pair [`haversine_km`].
#[cfg(test)]
fn pairwise_km_direct(points: &[Point]) -> Vec<f64> {
    let n = points.len();
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for (i, &a) in points.iter().enumerate() {
        for &b in &points[i + 1..] {
            out.push(haversine_km(a, b));
        }
    }
    out
}

/// Build-once pairwise geometry over a fixed point set: the
/// upper-triangular distance matrix plus per-origin distance-sorted
/// rank lists.
///
/// Intended to be built once per area set and shared behind an [`Arc`]
/// by every consumer (gravity observations, radiation/opportunities
/// intervening-population rankings, the epidemic network builder). The
/// structure is immutable — "invalidation" is simply building a new one
/// for a new point set; nothing is ever updated in place.
///
/// Memory: `n(n−1)/2` f64 for the triangle plus `n(n−1)` (f64, usize)
/// rank entries — ~24 n² bytes. The paper's scales fix n = 20 (≈ 9 KiB);
/// epidemic networks stay in the same range, so the cache is always
/// small compared to the tweet data it serves.
#[derive(Debug, Clone)]
pub struct PairGeometry {
    n: usize,
    /// Upper triangle, row-major: pairs `(i, j)` with `i < j`.
    tri: Vec<f64>,
    /// Per origin: `(distance to other point, its index)`, ascending.
    ranked: Vec<Vec<(f64, usize)>>,
}

impl PairGeometry {
    /// Builds the cache with the [`TrigPoint`] batch kernel.
    #[must_use]
    pub fn build(points: &[Point]) -> Self {
        Self::from_triangle(points.len(), pairwise_km(points))
    }

    /// [`PairGeometry::build`] wrapped in an [`Arc`] for sharing.
    #[must_use]
    pub fn shared(points: &[Point]) -> Arc<Self> {
        Arc::new(Self::build(points))
    }

    fn from_triangle(n: usize, tri: Vec<f64>) -> Self {
        let _span = tweetmob_obs::span!("cache/pairgeo/build");
        debug_assert_eq!(tri.len(), n * n.saturating_sub(1) / 2);
        // One streaming pass over the row-major triangle appends each
        // pair to both endpoint rows. Row `i` receives its `j < i`
        // partners while earlier rows are scanned (in ascending `j`)
        // and its `j > i` partners when row `i` itself is scanned —
        // so every pre-sort row is exactly the ascending-index order
        // the per-origin scalar build produced, and the stable sort
        // below yields bit-identical rank lists (ties included).
        let mut ranked: Vec<Vec<(f64, usize)>> = (0..n)
            .map(|_| Vec::with_capacity(n.saturating_sub(1)))
            .collect();
        let mut idx = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = tri[idx];
                idx += 1;
                ranked[i].push((d, j));
                ranked[j].push((d, i));
            }
        }
        for row in &mut ranked {
            row.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Self { n, tri, ranked }
    }

    /// Number of points the cache covers.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cache covers no points.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cached distance between points `i` and `j`, km (0 on the
    /// diagonal). Symmetric by construction.
    ///
    /// # Panics
    ///
    /// If an index is out of range.
    #[inline]
    #[must_use]
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "point index out of range");
        if i == j {
            return 0.0;
        }
        tri_lookup(&self.tri, self.n, i, j)
    }

    /// The distance-sorted rank list of origin `i`: `(distance, index)`
    /// ascending over every other point.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[inline]
    #[must_use]
    pub fn ranked(&self, i: usize) -> &[(f64, usize)] {
        &self.ranked[i]
    }
}

/// Upper-triangle lookup for an unordered pair (`i != j`).
#[inline]
fn tri_lookup(tri: &[f64], n: usize, i: usize, j: usize) -> f64 {
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    tri[lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(count: usize, seed: u64) -> Vec<Point> {
        let mut k = seed;
        let mut next = |lo: f64, hi: f64| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            lo + (k >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        (0..count)
            .map(|_| Point::new_unchecked(next(-44.0, -10.0), next(113.0, 154.0)))
            .collect()
    }

    /// The pre-cache path: the same structure over scalar per-pair
    /// [`haversine_km`] distances.
    fn build_direct(points: &[Point]) -> PairGeometry {
        PairGeometry::from_triangle(points.len(), pairwise_km_direct(points))
    }

    #[test]
    fn trig_distance_bit_identical_to_haversine() {
        let pts = scatter(40, 3);
        for (i, &a) in pts.iter().enumerate() {
            let ta = TrigPoint::new(a);
            for &b in &pts[i..] {
                let tb = TrigPoint::new(b);
                assert_eq!(
                    ta.distance_km(&tb).to_bits(),
                    haversine_km(a, b).to_bits(),
                    "{a:?} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn trig_distance_bit_identical_near_antipode() {
        // The clamp keeps h in [0, 1] where rounding pushes it above;
        // both paths must agree bit-for-bit there too.
        let a = Point::new_unchecked(10.0, 20.0);
        for dlat in [-1e-12, 0.0, 1e-12] {
            for dlon in [-1e-12, 0.0, 1e-12] {
                let b = Point::new_unchecked(-10.0 + dlat, -160.0 + dlon);
                let d = TrigPoint::new(a).distance_km(&TrigPoint::new(b));
                assert_eq!(d.to_bits(), haversine_km(a, b).to_bits());
                assert!(d.is_finite());
            }
        }
    }

    #[test]
    fn batch_kernel_matches_scalar_reference() {
        let pts = scatter(25, 11);
        let fast = pairwise_km(&pts);
        let slow = pairwise_km_direct(&pts);
        assert_eq!(fast.len(), 25 * 24 / 2);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pair_geometry_distance_is_symmetric_with_zero_diagonal() {
        let pts = scatter(12, 7);
        let geo = PairGeometry::build(&pts);
        assert_eq!(geo.len(), 12);
        assert!(!geo.is_empty());
        for i in 0..12 {
            assert_eq!(geo.distance(i, i), 0.0);
            for j in 0..12 {
                assert_eq!(geo.distance(i, j).to_bits(), geo.distance(j, i).to_bits());
                if i != j {
                    assert_eq!(
                        geo.distance(i, j).to_bits(),
                        haversine_km(pts[i], pts[j]).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn direct_build_matches_kernel_build() {
        let pts = scatter(15, 23);
        let fast = PairGeometry::build(&pts);
        let slow = build_direct(&pts);
        assert_eq!(fast.tri.len(), slow.tri.len());
        for (a, b) in fast.tri.iter().zip(&slow.tri) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.ranked(3), slow.ranked(3));
    }

    #[test]
    fn ranked_rows_are_ascending_and_complete() {
        let pts = scatter(10, 5);
        let geo = PairGeometry::build(&pts);
        for i in 0..10 {
            let row = geo.ranked(i);
            assert_eq!(row.len(), 9);
            assert!(row.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(row
                .iter()
                .all(|&(d, j)| { j != i && d.to_bits() == geo.distance(i, j).to_bits() }));
        }
    }

    #[test]
    fn empty_and_single_point_sets() {
        let empty = PairGeometry::build(&[]);
        assert!(empty.is_empty());
        assert!(empty.tri.is_empty());
        let one = PairGeometry::build(&[Point::new_unchecked(0.0, 0.0)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.distance(0, 0), 0.0);
        assert!(one.ranked(0).is_empty());
    }

    #[test]
    fn shared_handle_is_cheaply_clonable() {
        let geo = PairGeometry::shared(&scatter(8, 1));
        let other = Arc::clone(&geo);
        assert_eq!(geo.distance(0, 5).to_bits(), other.distance(0, 5).to_bits());
    }
}
