//! # tweetmob-geo
//!
//! Geodesy substrate for the `tweetmob` workspace.
//!
//! The paper ("Multi-scale Population and Mobility Estimation with
//! Geo-tagged Tweets", Liu et al.) works with raw WGS-84 coordinates of
//! geo-tagged tweets and needs these geometric capabilities, all provided
//! here:
//!
//! * **great-circle distances** between tweet locations and area centres
//!   ([`haversine_km`]). Radius extraction — "number of Tweets / users
//!   within a search radius ε of an area centre" — counts a tweet toward
//!   an area iff its haversine distance is at most ε, and needs no
//!   spatial index: `tweetmob-core` tests every tweet against the ≈20
//!   study areas in one columnar scan;
//! * **density rasterisation** for the paper's Figure 1 tweet-density map
//!   ([`DensityGrid`]);
//! * a **columnar geometry cache** for the model-fitting path —
//!   [`TrigPoint`] hoists per-point trigonometry out of pair loops and
//!   [`PairGeometry`] holds the build-once pairwise distance matrix and
//!   per-origin distance rankings, bit-identical to [`haversine_km`].
//!   It is never serialized: a model-artifact bundle stores the area
//!   centres, and a reader rebuilds the cache from them.
//!
//! All distances are in kilometres, all angles in degrees unless a function
//! name says otherwise. Latitude is constrained to `[-90, 90]` and
//! longitude to `[-180, 180]`; [`Point::new`] validates, [`Point::new_unchecked`]
//! skips validation for trusted hot paths.
//!
//! ## Example
//!
//! ```
//! use tweetmob_geo::{Point, haversine_km};
//!
//! let sydney = Point::new(-33.8688, 151.2093).unwrap();
//! let melbourne = Point::new(-37.8136, 144.9631).unwrap();
//! let d = haversine_km(sydney, melbourne);
//! assert!((d - 713.0).abs() < 10.0); // ~713 km apart
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::cast_possible_truncation
)]

mod bbox;
mod cache;
mod density;
mod distance;
mod point;

pub use bbox::{BoundingBox, AUSTRALIA_BBOX};
pub use cache::{PairGeometry, TrigPoint};
pub use density::{DensityCell, DensityGrid};
pub use distance::{destination, haversine_km, EARTH_RADIUS_KM};
pub use point::{GeoError, Point};
