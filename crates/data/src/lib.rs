//! # tweetmob-data
//!
//! Tweet records, columnar dataset storage, Table-I summary statistics and
//! serialisation for the `tweetmob` workspace.
//!
//! The paper's raw material is a stream of geo-tagged tweets — `(user,
//! timestamp, latitude, longitude)` tuples. This crate stores such streams
//! in a struct-of-arrays [`TweetDataset`] sorted by `(user, time)`, which
//! makes the two dominant access patterns cheap:
//!
//! * *per-user scans* for waiting-time and trip extraction (contiguous
//!   slices via the CSR user offsets);
//! * *whole-dataset coordinate scans* for density maps and spatial
//!   indexing (flat `lat[]` / `lon[]` columns).
//!
//! Serialisation: JSON Lines ([`io`]), the Twitter-shaped text format;
//! the columnar `TWC0` format ([`columnar`]) that mirrors the in-memory
//! layout for zero-parse full-scale loads; and the versioned
//! model-artifact container ([`artifact`]) that persists fitted models
//! with their geometry for the fit-once / predict-many workflow.
//!
//! [`DatasetSummary`] reproduces the paper's Table I (coordinate ranges,
//! tweet/user counts, average tweets per user, average waiting time,
//! average distinct locations per user) plus the §II "enthusiast" counts
//! (users with more than 50/100/500/1000 tweets).
//!
//! ## Example
//!
//! ```
//! use tweetmob_data::{Tweet, TweetDataset, Timestamp, UserId};
//! use tweetmob_geo::Point;
//!
//! let tweets = vec![
//!     Tweet::new(UserId(1), Timestamp::from_secs(100), Point::new(-33.9, 151.2).unwrap()),
//!     Tweet::new(UserId(1), Timestamp::from_secs(4000), Point::new(-33.8, 151.1).unwrap()),
//!     Tweet::new(UserId(2), Timestamp::from_secs(50), Point::new(-37.8, 145.0).unwrap()),
//! ];
//! let ds = TweetDataset::from_tweets(tweets);
//! assert_eq!(ds.n_tweets(), 3);
//! assert_eq!(ds.n_users(), 2);
//! assert_eq!(ds.unique_users(), &[UserId(1), UserId(2)]);
//! assert_eq!(ds.user_view(0).len(), 2);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod artifact;
pub mod columnar;
mod dataset;
mod invariants;
pub mod io;
mod summary;
mod time;
mod tweet;

pub use artifact::{
    BundleArea, BundleMeta, ModelBundle, QueryError, ARTIFACT_MAGIC, ARTIFACT_VERSION,
};
pub use dataset::{TweetDataset, UserTweets};
pub use summary::{ActivityBuckets, DatasetSummary};
pub use time::{Timestamp, SECS_PER_DAY, SECS_PER_HOUR};
pub use tweet::{Tweet, UserId};
