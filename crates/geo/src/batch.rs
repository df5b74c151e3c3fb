//! Contiguous-array distance kernels for struct-of-arrays datasets.
//!
//! The columnar [`TweetDataset`](../../tweetmob_data) stores coordinates
//! as flat `lat[]` / `lon[]` columns; these kernels consume those columns
//! directly instead of forcing callers to materialise `Point` structs.
//! The batch form hoists the origin's trigonometry out of the loop (the
//! [`TrigPoint`] trick from the pair-geometry cache) and leaves the body
//! as straight-line arithmetic over two contiguous arrays — exactly the
//! shape the autovectorizer handles best.
//!
//! **Determinism contract** (same as [`TrigPoint::distance_km`]): every
//! batch kernel evaluates the *identical* floating-point expression as
//! its scalar reference, operation for operation — outputs are asserted
//! bit-identical in the equivalence suite, so callers may switch freely
//! between the scalar and batch paths without perturbing any downstream
//! fit.

use crate::cache::TrigPoint;
#[cfg(test)]
use crate::distance::haversine_km;
use crate::distance::EARTH_RADIUS_KM;
use crate::point::Point;

/// Haversine distances from one `origin` to every `(lats[i], lons[i])`
/// coordinate pair, appended to `out` in order.
///
/// Bit-identical to `haversine_km(origin, p)` per element (the tests
/// compare it against a per-element scalar reference): the origin's
/// radian coordinates and latitude cosine are the exact values the
/// scalar formula recomputes per call, hoisted once.
///
/// # Panics
///
/// If `lats` and `lons` have different lengths.
pub fn haversine_km_batch(origin: Point, lats: &[f64], lons: &[f64], out: &mut Vec<f64>) {
    assert_eq!(lats.len(), lons.len(), "coordinate columns must be parallel");
    let o = TrigPoint::new(origin);
    out.reserve(lats.len());
    for (&lat, &lon) in lats.iter().zip(lons.iter()) {
        let lat_rad = lat.to_radians();
        let dlat = lat_rad - o.lat_rad;
        let dlon = lon.to_radians() - o.lon_rad;
        let sin_dlat = (dlat / 2.0).sin();
        let sin_dlon = (dlon / 2.0).sin();
        let h = sin_dlat * sin_dlat + o.cos_lat * lat_rad.cos() * sin_dlon * sin_dlon;
        out.push(2.0 * EARTH_RADIUS_KM * h.clamp(0.0, 1.0).sqrt().asin());
    }
}

/// Scalar reference for [`haversine_km_batch`]: per-element
/// [`haversine_km`] calls over the same columns.
#[cfg(test)]
fn haversine_km_batch_direct(origin: Point, lats: &[f64], lons: &[f64], out: &mut Vec<f64>) {
    assert_eq!(lats.len(), lons.len(), "coordinate columns must be parallel");
    out.reserve(lats.len());
    for (&lat, &lon) in lats.iter().zip(lons.iter()) {
        out.push(haversine_km(origin, Point::new_unchecked(lat, lon)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYDNEY: Point = Point::new_unchecked(-33.8688, 151.2093);

    fn columns() -> (Vec<f64>, Vec<f64>) {
        let lats = vec![-37.8136, -33.8688, -12.4634, -42.8821, -31.9523];
        let lons = vec![144.9631, 151.2093, 130.8456, 147.3272, 115.8613];
        (lats, lons)
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let (lats, lons) = columns();
        let mut fast = Vec::new();
        let mut reference = Vec::new();
        haversine_km_batch(SYDNEY, &lats, &lons, &mut fast);
        haversine_km_batch_direct(SYDNEY, &lats, &lons, &mut reference);
        assert_eq!(fast.len(), lats.len());
        for (a, b) in fast.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_appends_without_clearing() {
        let (lats, lons) = columns();
        let mut out = vec![1.0];
        haversine_km_batch(SYDNEY, &lats, &lons, &mut out);
        assert_eq!(out.len(), 1 + lats.len());
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn empty_columns_produce_nothing() {
        let mut out = Vec::new();
        haversine_km_batch(SYDNEY, &[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn self_distance_is_zero() {
        let mut out = Vec::new();
        haversine_km_batch(SYDNEY, &[SYDNEY.lat], &[SYDNEY.lon], &mut out);
        assert_eq!(out, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_columns_panic() {
        let mut out = Vec::new();
        haversine_km_batch(SYDNEY, &[0.0, 1.0], &[0.0], &mut out);
    }

    #[test]
    fn bit_identical_for_any_columns() {
        for seed in 0..64 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let origin =
                Point::new_unchecked(rng.range_f64(-89.9, 89.9), rng.range_f64(-179.9, 179.9));
            let n = rng.next_below(64);
            let lats: Vec<f64> = (0..n).map(|_| rng.range_f64(-89.9, 89.9)).collect();
            let lons: Vec<f64> = (0..n).map(|_| rng.range_f64(-179.9, 179.9)).collect();
            let mut fast = Vec::new();
            let mut reference = Vec::new();
            haversine_km_batch(origin, &lats, &lons, &mut fast);
            haversine_km_batch_direct(origin, &lats, &lons, &mut reference);
            for (i, (a, b)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}, element {i}");
            }
        }
    }
}
