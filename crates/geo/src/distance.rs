//! Great-circle distance and destination computations.
//!
//! The paper measures inter-area distances of 7.5 km (Sydney suburbs) to
//! 1422 km (national scale); haversine is accurate to well under 0.5 % over
//! that whole range on the spherical model, which is far below the noise of
//! tweet geotags. For radius filtering in hot loops the equirectangular
//! approximation is ~3x cheaper and accurate to <0.2 % under 100 km at
//! Australian latitudes (DESIGN.md §6.2).

use crate::point::Point;

/// Mean Earth radius (IUGG), kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Great-circle distance between two points via the haversine formula, km.
///
/// Numerically stable for both antipodal and very close points (uses
/// `asin(sqrt(h))` with `h` clamped to `[0, 1]`).
#[inline]
pub fn haversine_km(a: Point, b: Point) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let sin_dlat = (dlat / 2.0).sin();
    let sin_dlon = (dlon / 2.0).sin();
    let h = sin_dlat * sin_dlat + lat1.cos() * lat2.cos() * sin_dlon * sin_dlon;
    2.0 * EARTH_RADIUS_KM * h.clamp(0.0, 1.0).sqrt().asin()
}

/// Fast equirectangular-projection distance approximation, km.
///
/// Error grows with separation and latitude difference; intended for radius
/// *pre-filtering* of nearby points (≲ 100 km), where it under/over-states
/// haversine by well under 1 %. Falls apart near the poles and across the
/// antimeridian — Australian data (lat −55…−9, lon 112…160) never hits
/// either regime.
#[inline]
pub fn equirectangular_km(a: Point, b: Point) -> f64 {
    let mean_lat = ((a.lat + b.lat) / 2.0).to_radians();
    let x = (b.lon - a.lon).to_radians() * mean_lat.cos();
    let y = (b.lat - a.lat).to_radians();
    EARTH_RADIUS_KM * (x * x + y * y).sqrt()
}

/// Destination point reached travelling `distance_km` from `start` on the
/// initial bearing `bearing_deg` (degrees clockwise from north).
///
/// Used by the synthetic generator to scatter tweet locations around a home
/// centre and to displace trip endpoints.
pub fn destination(start: Point, bearing_deg: f64, distance_km: f64) -> Point {
    let delta = distance_km / EARTH_RADIUS_KM;
    let theta = bearing_deg.to_radians();
    let lat1 = start.lat_rad();
    let lon1 = start.lon_rad();
    let lat2 = (lat1.sin() * delta.cos() + lat1.cos() * delta.sin() * theta.cos()).asin();
    let lon2 = lon1
        + (theta.sin() * delta.sin() * lat1.cos()).atan2(delta.cos() - lat1.sin() * lat2.sin());
    // Normalise longitude to [-180, 180].
    let mut lon_deg = lon2.to_degrees();
    if lon_deg > 180.0 {
        lon_deg -= 360.0;
    } else if lon_deg < -180.0 {
        lon_deg += 360.0;
    }
    Point::new_unchecked(lat2.to_degrees(), lon_deg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sydney() -> Point {
        Point::new_unchecked(-33.8688, 151.2093)
    }
    fn melbourne() -> Point {
        Point::new_unchecked(-37.8136, 144.9631)
    }
    fn perth() -> Point {
        Point::new_unchecked(-31.9523, 115.8613)
    }

    #[test]
    fn haversine_known_city_pairs() {
        // Published great-circle distances (spherical model), ±10 km.
        assert!((haversine_km(sydney(), melbourne()) - 713.0).abs() < 10.0);
        assert!((haversine_km(sydney(), perth()) - 3290.0).abs() < 20.0);
    }

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(haversine_km(sydney(), sydney()), 0.0);
    }

    #[test]
    fn haversine_symmetric() {
        let d1 = haversine_km(sydney(), perth());
        let d2 = haversine_km(perth(), sydney());
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn haversine_antipodal_is_half_circumference() {
        let a = Point::new_unchecked(0.0, 0.0);
        let b = Point::new_unchecked(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((haversine_km(a, b) - half).abs() < 1e-6);
    }

    #[test]
    fn haversine_near_antipodal_never_nan() {
        // Regression: without the [0, 1] clamp on h, rounding at points
        // a hair short of the exact antipode can push h above 1 and
        // sqrt().asin() returns NaN. Perturb the antipode by ±1e-12°
        // on each axis and require a finite distance at (or just under)
        // half the circumference.
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        for (lat, lon) in [(0.0, 0.0), (10.0, 20.0), (-33.8688, 151.2093)] {
            let a = Point::new_unchecked(lat, lon);
            let anti_lon = if lon > 0.0 { lon - 180.0 } else { lon + 180.0 };
            for dlat in [-1e-12, 0.0, 1e-12] {
                for dlon in [-1e-12, 0.0, 1e-12] {
                    let b = Point::new_unchecked(-lat + dlat, anti_lon + dlon);
                    let d = haversine_km(a, b);
                    assert!(d.is_finite(), "NaN at antipode of ({lat}, {lon})");
                    assert!((d - half).abs() < 1e-3, "d {d} vs half {half}");
                }
            }
        }
    }

    #[test]
    fn haversine_one_degree_latitude_is_about_111km() {
        let a = Point::new_unchecked(-30.0, 150.0);
        let b = Point::new_unchecked(-31.0, 150.0);
        let d = haversine_km(a, b);
        assert!((d - 111.195).abs() < 0.01, "got {d}");
    }

    #[test]
    fn equirectangular_close_to_haversine_for_short_range() {
        let a = sydney();
        // ~20 km east of Sydney.
        let b = Point::new_unchecked(-33.8688, 151.4253);
        let h = haversine_km(a, b);
        let e = equirectangular_km(a, b);
        assert!((h - e).abs() / h < 0.002, "h={h} e={e}");
    }

    #[test]
    fn equirectangular_within_one_percent_at_100km() {
        let a = sydney();
        let b = destination(a, 37.0, 100.0);
        let h = haversine_km(a, b);
        let e = equirectangular_km(a, b);
        assert!((h - e).abs() / h < 0.01, "h={h} e={e}");
    }

    #[test]
    fn destination_roundtrip_distance() {
        let start = sydney();
        for bearing in [0.0, 45.0, 123.0, 270.0] {
            for dist in [0.5, 10.0, 250.0, 2000.0] {
                let end = destination(start, bearing, dist);
                let measured = haversine_km(start, end);
                assert!(
                    (measured - dist).abs() < 1e-6 * dist.max(1.0),
                    "bearing {bearing} dist {dist} measured {measured}"
                );
            }
        }
    }

    #[test]
    fn destination_longitude_stays_normalised() {
        // Start near the antimeridian and push across it.
        let start = Point::new_unchecked(-10.0, 179.5);
        let end = destination(start, 90.0, 200.0);
        assert!(end.lon >= -180.0 && end.lon <= 180.0, "lon {}", end.lon);
        assert!(end.lon < 0.0, "should have wrapped, lon {}", end.lon);
    }

    #[test]
    fn destination_zero_distance_is_identity() {
        let start = sydney();
        let end = destination(start, 77.0, 0.0);
        assert!((end.lat - start.lat).abs() < 1e-12);
        assert!((end.lon - start.lon).abs() < 1e-12);
    }
}
