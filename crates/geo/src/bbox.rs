//! Axis-aligned geographic bounding boxes.

use crate::point::{GeoError, Point};

/// The longitude/latitude window the paper uses to filter tweets "published
/// from Australia" (Table I): lon ∈ [112.921112, 159.278717],
/// lat ∈ [−54.640301, −9.228820].
pub const AUSTRALIA_BBOX: BoundingBox = BoundingBox {
    min_lat: -54.640301,
    max_lat: -9.228820,
    min_lon: 112.921112,
    max_lon: 159.278717,
};

/// An axis-aligned box in coordinate space.
///
/// Does not model antimeridian wrap-around: `min_lon <= max_lon` is
/// required. Australian data never crosses the antimeridian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Southern edge (degrees).
    pub min_lat: f64,
    /// Northern edge (degrees).
    pub max_lat: f64,
    /// Western edge (degrees).
    pub min_lon: f64,
    /// Eastern edge (degrees).
    pub max_lon: f64,
}

impl BoundingBox {
    /// Creates a validated box from two corner points.
    ///
    /// # Errors
    ///
    /// [`GeoError::EmptyBox`] when min exceeds max on either axis, or the
    /// coordinate errors from [`Point::new`] when a corner is invalid.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<Self, GeoError> {
        Point::new(min_lat, min_lon)?;
        Point::new(max_lat, max_lon)?;
        if min_lat > max_lat {
            return Err(GeoError::EmptyBox {
                axis: "lat",
                min: min_lat,
                max: max_lat,
            });
        }
        if min_lon > max_lon {
            return Err(GeoError::EmptyBox {
                axis: "lon",
                min: min_lon,
                max: max_lon,
            });
        }
        Ok(Self {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// Whether `p` falls inside the box (edges inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.lat >= self.min_lat
            && p.lat <= self.max_lat
            && p.lon >= self.min_lon
            && p.lon <= self.max_lon
    }

    /// Latitude span in degrees.
    #[inline]
    pub(crate) fn lat_span(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Longitude span in degrees.
    #[inline]
    pub fn lon_span(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// Box centre in coordinate space.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new_unchecked(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_lat: self.min_lat.min(other.min_lat),
            max_lat: self.max_lat.max(other.max_lat),
            min_lon: self.min_lon.min(other.min_lon),
            max_lon: self.max_lon.max(other.max_lon),
        }
    }

    /// The smallest box covering every point in the iterator, or `None`
    /// when the iterator is empty.
    pub fn covering<I: IntoIterator<Item = Point>>(points: I) -> Option<BoundingBox> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut b = BoundingBox {
            min_lat: first.lat,
            max_lat: first.lat,
            min_lon: first.lon,
            max_lon: first.lon,
        };
        for p in it {
            b.min_lat = b.min_lat.min(p.lat);
            b.max_lat = b.max_lat.max(p.lat);
            b.min_lon = b.min_lon.min(p.lon);
            b.max_lon = b.max_lon.max(p.lon);
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn australia_bbox_contains_capitals_not_auckland() {
        let sydney = Point::new_unchecked(-33.8688, 151.2093);
        let perth = Point::new_unchecked(-31.9523, 115.8613);
        let darwin = Point::new_unchecked(-12.4634, 130.8456);
        let hobart = Point::new_unchecked(-42.8821, 147.3272);
        let auckland = Point::new_unchecked(-36.8485, 174.7633);
        let jakarta = Point::new_unchecked(-6.2088, 106.8456);
        assert!(AUSTRALIA_BBOX.contains(sydney));
        assert!(AUSTRALIA_BBOX.contains(perth));
        assert!(AUSTRALIA_BBOX.contains(darwin));
        assert!(AUSTRALIA_BBOX.contains(hobart));
        assert!(!AUSTRALIA_BBOX.contains(auckland));
        assert!(!AUSTRALIA_BBOX.contains(jakarta));
    }

    #[test]
    fn edges_are_inclusive() {
        let b = BoundingBox::new(-10.0, 0.0, 100.0, 110.0).unwrap();
        assert!(b.contains(Point::new_unchecked(-10.0, 100.0)));
        assert!(b.contains(Point::new_unchecked(0.0, 110.0)));
        assert!(!b.contains(Point::new_unchecked(-10.0001, 100.0)));
    }

    #[test]
    fn inverted_box_rejected() {
        let err = BoundingBox::new(5.0, -5.0, 0.0, 1.0).unwrap_err();
        assert!(matches!(err, GeoError::EmptyBox { axis: "lat", .. }));
        let err = BoundingBox::new(-5.0, 5.0, 10.0, 1.0).unwrap_err();
        assert!(matches!(err, GeoError::EmptyBox { axis: "lon", .. }));
    }

    #[test]
    fn degenerate_point_box_is_valid() {
        let b = BoundingBox::new(-33.0, -33.0, 151.0, 151.0).unwrap();
        assert!(b.contains(Point::new_unchecked(-33.0, 151.0)));
        assert_eq!(b.lat_span(), 0.0);
        assert_eq!(b.lon_span(), 0.0);
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox::new(-40.0, -30.0, 140.0, 150.0).unwrap();
        let b = BoundingBox::new(-35.0, -25.0, 145.0, 155.0).unwrap();
        let u = a.union(&b);
        assert_eq!(u, BoundingBox::new(-40.0, -25.0, 140.0, 155.0).unwrap());
    }

    #[test]
    fn covering_box_of_points() {
        let pts = vec![
            Point::new_unchecked(-33.0, 151.0),
            Point::new_unchecked(-37.0, 145.0),
            Point::new_unchecked(-31.0, 115.0),
        ];
        let b = BoundingBox::covering(pts).unwrap();
        assert_eq!(b.min_lat, -37.0);
        assert_eq!(b.max_lat, -31.0);
        assert_eq!(b.min_lon, 115.0);
        assert_eq!(b.max_lon, 151.0);
    }

    #[test]
    fn covering_empty_is_none() {
        assert!(BoundingBox::covering(std::iter::empty()).is_none());
    }

    #[test]
    fn center_of_australia_box_is_inland() {
        let c = AUSTRALIA_BBOX.center();
        assert!(c.lat < -9.0 && c.lat > -55.0);
        assert!(c.lon > 112.0 && c.lon < 160.0);
    }
}
