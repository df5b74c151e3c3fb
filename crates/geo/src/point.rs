//! WGS-84 points and coordinate validation.

use std::fmt;

/// Error type for invalid geographic input.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Latitude outside `[-90, 90]` or not finite.
    InvalidLatitude(f64),
    /// Longitude outside `[-180, 180]` or not finite.
    InvalidLongitude(f64),
    /// A bounding box whose minimum exceeds its maximum on some axis.
    EmptyBox {
        /// Offending axis name (`"lat"` or `"lon"`).
        axis: &'static str,
        /// Minimum supplied for the axis.
        min: f64,
        /// Maximum supplied for the axis.
        max: f64,
    },
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::InvalidLatitude(v) => {
                write!(f, "latitude {v} outside [-90, 90] or not finite")
            }
            GeoError::InvalidLongitude(v) => {
                write!(f, "longitude {v} outside [-180, 180] or not finite")
            }
            GeoError::EmptyBox { axis, min, max } => {
                write!(
                    f,
                    "bounding box empty on {axis} axis: min {min} > max {max}"
                )
            }
        }
    }
}

impl std::error::Error for GeoError {}

/// A WGS-84 coordinate pair in degrees.
///
/// `Point` is `Copy` and 16 bytes; tweet datasets store millions of them in
/// flat vectors, so it deliberately carries no altitude, datum or metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Latitude in degrees, `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, `[-180, 180]`.
    pub lon: f64,
}

impl Point {
    /// Creates a validated point.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// when a coordinate is non-finite or out of range.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(Self { lat, lon })
    }

    /// Creates a point without range checks.
    ///
    /// Use only where coordinates are known valid (e.g. values already
    /// produced by this crate). Invalid values produce garbage distances,
    /// never memory unsafety.
    #[inline]
    pub const fn new_unchecked(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(self) -> f64 {
        self.lon.to_radians()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_point_roundtrips() {
        let p = Point::new(-33.8688, 151.2093).unwrap();
        assert_eq!(p.lat, -33.8688);
        assert_eq!(p.lon, 151.2093);
    }

    #[test]
    fn poles_and_antimeridian_are_valid() {
        assert!(Point::new(90.0, 0.0).is_ok());
        assert!(Point::new(-90.0, 0.0).is_ok());
        assert!(Point::new(0.0, 180.0).is_ok());
        assert!(Point::new(0.0, -180.0).is_ok());
    }

    #[test]
    fn out_of_range_latitude_rejected() {
        assert_eq!(
            Point::new(90.0001, 0.0),
            Err(GeoError::InvalidLatitude(90.0001))
        );
        assert_eq!(
            Point::new(-91.0, 0.0),
            Err(GeoError::InvalidLatitude(-91.0))
        );
    }

    #[test]
    fn out_of_range_longitude_rejected() {
        assert_eq!(
            Point::new(0.0, 180.5),
            Err(GeoError::InvalidLongitude(180.5))
        );
    }

    #[test]
    fn non_finite_rejected() {
        assert!(Point::new(f64::NAN, 0.0).is_err());
        assert!(Point::new(0.0, f64::INFINITY).is_err());
        assert!(Point::new(f64::NEG_INFINITY, 0.0).is_err());
    }

    #[test]
    fn radians_conversion() {
        let p = Point::new(90.0, -180.0).unwrap();
        assert!((p.lat_rad() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((p.lon_rad() + std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn display_formats_six_decimals() {
        let p = Point::new(-33.8688, 151.2093).unwrap();
        assert_eq!(p.to_string(), "(-33.868800, 151.209300)");
    }
}
