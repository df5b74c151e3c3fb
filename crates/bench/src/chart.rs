//! Scatter/series charts with the paper's log-log layout.

use crate::axes::Axis;
use crate::svg::SvgCanvas;

const WIDTH: f64 = 560.0;
const HEIGHT: f64 = 420.0;
const MARGIN_LEFT: f64 = 64.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 36.0;
const MARGIN_BOTTOM: f64 = 52.0;

/// Visual style of one series.
#[derive(Debug, Clone, Copy)]
struct SeriesStyle {
    /// CSS colour.
    color: &'static str,
    /// Marker radius, px.
    radius: f64,
    /// Marker fill opacity (the paper's grey clouds are translucent).
    opacity: f64,
    /// Whether consecutive points are joined by a line (PDF curves).
    joined: bool,
}

/// The palette, cycled across series: grey pair clouds, red binned
/// means, then a joined blue curve.
const PALETTE: [SeriesStyle; 3] = [
    SeriesStyle {
        color: "#888888",
        radius: 2.2,
        opacity: 0.45,
        joined: false,
    },
    SeriesStyle {
        color: "#d62728",
        radius: 3.5,
        opacity: 0.95,
        joined: false,
    },
    SeriesStyle {
        color: "#1f77b4",
        radius: 3.0,
        opacity: 0.9,
        joined: true,
    },
];

struct Series {
    label: String,
    points: Vec<(f64, f64)>,
    style: SeriesStyle,
}

/// A builder for one log-log chart panel.
pub(crate) struct ScatterChart {
    title: String,
    x_label: String,
    y_label: String,
    diagonal: bool,
    series: Vec<Series>,
}

impl ScatterChart {
    /// Starts a chart with a title and axis labels.
    pub(crate) fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            diagonal: false,
            series: Vec::new(),
        }
    }

    /// Draws the `y = x` reference diagonal (the paper's red line).
    pub(crate) fn with_diagonal(mut self) -> Self {
        self.diagonal = true;
        self
    }

    /// Adds a series with the next palette style.
    pub(crate) fn series(self, label: &str, points: &[(f64, f64)]) -> Self {
        let style = PALETTE[self.series.len() % PALETTE.len()];
        self.push(label, points, style)
    }

    /// Adds a joined curve (a Fig. 2 PDF) in the palette's blue.
    pub(crate) fn curve(self, label: &str, points: &[(f64, f64)]) -> Self {
        self.push(label, points, PALETTE[2])
    }

    fn push(mut self, label: &str, points: &[(f64, f64)], style: SeriesStyle) -> Self {
        self.series.push(Series {
            label: label.to_string(),
            points: points.to_vec(),
            style,
        });
        self
    }

    fn data_bounds(&self) -> ((f64, f64), (f64, f64)) {
        let mut xb = (f64::INFINITY, f64::NEG_INFINITY);
        let mut yb = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.series {
            for &(x, y) in &s.points {
                if x.is_finite() && y.is_finite() && x > 0.0 && y > 0.0 {
                    xb.0 = xb.0.min(x);
                    xb.1 = xb.1.max(x);
                    yb.0 = yb.0.min(y);
                    yb.1 = yb.1.max(y);
                }
            }
        }
        if !xb.0.is_finite() {
            xb = (0.0, 1.0);
            yb = (0.0, 1.0);
        }
        (xb, yb)
    }

    /// Renders the SVG document.
    pub(crate) fn render(self) -> String {
        let ((mut x_lo, mut x_hi), (mut y_lo, mut y_hi)) = self.data_bounds();
        if self.diagonal {
            // A shared range makes the diagonal meaningful.
            let lo = x_lo.min(y_lo);
            let hi = x_hi.max(y_hi);
            (x_lo, y_lo, x_hi, y_hi) = (lo, lo, hi, hi);
        }
        let x_axis = Axis::new(x_lo, x_hi, MARGIN_LEFT, WIDTH - MARGIN_RIGHT);
        let y_axis = Axis::new(y_lo, y_hi, HEIGHT - MARGIN_BOTTOM, MARGIN_TOP);

        let mut c = SvgCanvas::new(WIDTH, HEIGHT);
        // Frame.
        c.rect(
            MARGIN_LEFT,
            MARGIN_TOP,
            WIDTH - MARGIN_LEFT - MARGIN_RIGHT,
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM,
            "none",
            "#333333",
        );
        c.text(WIDTH / 2.0, 22.0, &self.title, 15.0, "middle", 0.0);
        c.text(
            WIDTH / 2.0,
            HEIGHT - 14.0,
            &self.x_label,
            12.0,
            "middle",
            0.0,
        );
        c.text(16.0, HEIGHT / 2.0, &self.y_label, 12.0, "middle", -90.0);

        // Ticks + grid.
        for t in x_axis.ticks() {
            if let Some(px) = x_axis.project(t) {
                c.line(px, HEIGHT - MARGIN_BOTTOM, px, MARGIN_TOP, "#eeeeee", 0.8);
                c.line(
                    px,
                    HEIGHT - MARGIN_BOTTOM,
                    px,
                    HEIGHT - MARGIN_BOTTOM + 4.0,
                    "#333333",
                    1.0,
                );
                c.text(
                    px,
                    HEIGHT - MARGIN_BOTTOM + 18.0,
                    &x_axis.tick_label(t),
                    10.0,
                    "middle",
                    0.0,
                );
            }
        }
        for t in y_axis.ticks() {
            if let Some(py) = y_axis.project(t) {
                c.line(MARGIN_LEFT, py, WIDTH - MARGIN_RIGHT, py, "#eeeeee", 0.8);
                c.line(MARGIN_LEFT - 4.0, py, MARGIN_LEFT, py, "#333333", 1.0);
                c.text(
                    MARGIN_LEFT - 7.0,
                    py + 3.5,
                    &y_axis.tick_label(t),
                    10.0,
                    "end",
                    0.0,
                );
            }
        }

        // Reference diagonal (projected through the shared range).
        if self.diagonal {
            if let (Some(x1), Some(y1), Some(x2), Some(y2)) = (
                x_axis.project(x_lo),
                y_axis.project(x_lo),
                x_axis.project(x_hi),
                y_axis.project(x_hi),
            ) {
                c.dashed_line(x1, y1, x2, y2, "#d62728", 1.2);
            }
        }

        // Series.
        for s in &self.series {
            let mut prev: Option<(f64, f64)> = None;
            for &(x, y) in &s.points {
                let (Some(px), Some(py)) = (x_axis.project(x), y_axis.project(y)) else {
                    prev = None;
                    continue;
                };
                if s.style.joined {
                    if let Some((qx, qy)) = prev {
                        c.line(qx, qy, px, py, s.style.color, 1.4);
                    }
                    prev = Some((px, py));
                }
                c.circle(px, py, s.style.radius, s.style.color, s.style.opacity);
            }
        }

        // Legend (top-left inside the frame).
        for (i, s) in self.series.iter().enumerate() {
            let y = MARGIN_TOP + 16.0 + i as f64 * 16.0;
            c.circle(MARGIN_LEFT + 12.0, y - 3.5, 4.0, s.style.color, 1.0);
            c.text(MARGIN_LEFT + 22.0, y, &s.label, 11.0, "start", 0.0);
        }
        c.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scatter_with_all_elements() {
        let svg = ScatterChart::new("Fig X", "estimated", "extracted")
            .with_diagonal()
            .series("pairs", &[(1.0, 1.5), (10.0, 9.0), (500.0, 620.0)])
            .series("binned means", &[(3.0, 3.2), (100.0, 95.0)])
            .render();
        assert!(svg.contains("Fig X"));
        assert!(svg.contains("estimated"));
        assert!(svg.contains("pairs"));
        assert!(svg.contains("binned means"));
        assert!(svg.contains("stroke-dasharray")); // the diagonal
        assert!(svg.matches("<circle").count() >= 5); // points + legend dots
    }

    #[test]
    fn nonpositive_points_are_skipped_on_log_axes() {
        let svg = ScatterChart::new("t", "x", "y")
            .series("s", &[(0.0, 5.0), (-2.0, 1.0), (10.0, 10.0)])
            .render();
        // One data point + one legend dot.
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn empty_chart_still_renders() {
        let svg = ScatterChart::new("empty", "x", "y").render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("empty"));
    }

    #[test]
    fn joined_series_draws_segments() {
        let svg = ScatterChart::new("t", "x", "y")
            .curve("pdf", &[(1.0, 1.0), (2.0, 4.0), (3.0, 9.0)])
            .render();
        // 2 joining segments + frame ticks; count colored strokes.
        assert!(svg.matches(r##"stroke="#1f77b4""##).count() >= 2);
    }

    #[test]
    fn diagonal_forces_shared_bounds() {
        // x spans 1..10, y spans 100..1000; with a diagonal both axes
        // share 1..1000, so 1e2 appears as a tick on the x axis too.
        let svg = ScatterChart::new("t", "x", "y")
            .with_diagonal()
            .series("s", &[(1.0, 100.0), (10.0, 1000.0)])
            .render();
        assert!(svg.matches(">1e2<").count() >= 2, "{svg}");
    }
}
