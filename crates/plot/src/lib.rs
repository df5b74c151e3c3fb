//! # tweetmob-plot
//!
//! Dependency-free SVG charts, sized for the paper's figures:
//!
//! * [`ScatterChart`] — log-log (or linear) scatter plots with multiple
//!   series, a `y = x` reference diagonal and decade ticks: Figs. 2–4.
//! * [`Heatmap`] — a log-colour raster for the Fig. 1 tweet-density map.
//!
//! Output is plain SVG text — no raster dependencies, diffable in tests,
//! and viewable in any browser. The `figures` regeneration binary in
//! `tweetmob-bench` uses this crate to write `figures/*.svg`.
//!
//! ## Example
//!
//! ```
//! use tweetmob_plot::{AxisKind, ScatterChart};
//!
//! let svg = ScatterChart::new("demo", "x", "y")
//!     .x_axis(AxisKind::Log)
//!     .y_axis(AxisKind::Log)
//!     .with_diagonal()
//!     .series("points", &[(1.0, 2.0), (10.0, 8.0), (100.0, 120.0)])
//!     .render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("demo"));
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod axes;
mod chart;
mod heatmap;
mod svg;

pub use axes::{Axis, AxisKind};
pub use chart::{ScatterChart, SeriesStyle};
pub use heatmap::Heatmap;
pub use svg::SvgCanvas;
