//! Log-colour heatmaps for the Fig. 1 density map.

use super::svg::SvgCanvas;

/// A rectangular heatmap over cell counts, rendered with a log colour
/// ramp (the paper's 10⁰…10⁵ scale).
pub(crate) struct Heatmap {
    title: String,
    ncols: usize,
    nrows: usize,
    /// Row-major counts, row 0 = south (rendered at the bottom).
    counts: Vec<u64>,
}

impl Heatmap {
    /// Builds a heatmap from row-major counts (row 0 southmost).
    ///
    /// # Panics
    ///
    /// If `counts.len() != ncols * nrows` or either dimension is zero.
    pub(crate) fn new(title: &str, ncols: usize, nrows: usize, counts: Vec<u64>) -> Self {
        assert!(ncols > 0 && nrows > 0, "heatmap needs positive dimensions");
        assert_eq!(counts.len(), ncols * nrows, "counts shape mismatch");
        Self {
            title: title.to_string(),
            ncols,
            nrows,
            counts,
        }
    }

    /// Maps `log10(count)/log10(max)` to a white→orange→dark-red ramp
    /// (hex colour). Zero counts map to a pale ocean blue so land/sea
    /// structure reads like the paper's figure.
    fn color_for(count: u64, max: u64) -> String {
        if count == 0 {
            return "#eef4fb".to_string();
        }
        let t = if max <= 1 {
            1.0
        } else {
            (count as f64).log10() / (max as f64).log10()
        }
        .clamp(0.0, 1.0);
        // Piecewise ramp: white (t=0) → orange (t=0.5) → dark red (t=1).
        let (r, g, b) = if t < 0.5 {
            let u = t / 0.5;
            (255.0, 255.0 - u * (255.0 - 165.0), 255.0 - u * 255.0)
        } else {
            let u = (t - 0.5) / 0.5;
            (255.0 - u * (255.0 - 139.0), 165.0 - u * 165.0, 0.0)
        };
        format!("#{:02x}{:02x}{:02x}", r as u8, g as u8, b as u8)
    }

    /// Renders the SVG (one rect per non-empty cell over an ocean
    /// background — sparse rasters stay small).
    pub(crate) fn render(self) -> String {
        const CELL_PX: f64 = 4.0;
        const MARGIN: f64 = 28.0;
        let width = self.ncols as f64 * CELL_PX + 2.0 * MARGIN;
        let height = self.nrows as f64 * CELL_PX + 2.0 * MARGIN + 16.0;
        let mut c = SvgCanvas::new(width, height);
        c.text(width / 2.0, 18.0, &self.title, 14.0, "middle", 0.0);
        let max = self.counts.iter().copied().max().unwrap_or(0);
        // Ocean backdrop.
        c.rect(
            MARGIN,
            MARGIN + 16.0 - CELL_PX, // align with top row
            self.ncols as f64 * CELL_PX,
            self.nrows as f64 * CELL_PX,
            "#eef4fb",
            "#999999",
        );
        for row in 0..self.nrows {
            for col in 0..self.ncols {
                let count = self.counts[row * self.ncols + col];
                if count == 0 {
                    continue;
                }
                // Row 0 is south → render from the bottom.
                let y = MARGIN + 16.0 + (self.nrows - 1 - row) as f64 * CELL_PX - CELL_PX;
                let x = MARGIN + col as f64 * CELL_PX;
                c.rect(x, y, CELL_PX, CELL_PX, &Self::color_for(count, max), "none");
            }
        }
        c.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_ramp_endpoints() {
        assert_eq!(Heatmap::color_for(0, 100), "#eef4fb");
        // Max count is the darkest ramp colour.
        assert_eq!(Heatmap::color_for(100, 100), "#8b0000");
        // A single count on a big scale is near-white.
        let light = Heatmap::color_for(1, 100_000);
        assert_eq!(light, "#ffffff");
    }

    #[test]
    fn color_ramp_monotone_darkening() {
        // Red channel never increases along the ramp.
        let max = 1_000_000u64;
        let mut prev_r = 256i32;
        for c in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let hex = Heatmap::color_for(c, max);
            let r = i32::from_str_radix(&hex[1..3], 16).unwrap();
            assert!(r <= prev_r, "count {c}: {hex}");
            prev_r = r;
        }
    }

    #[test]
    fn renders_only_nonempty_cells() {
        let mut counts = vec![0u64; 20 * 10];
        counts[5] = 3;
        counts[42] = 99;
        let svg = Heatmap::new("map", 20, 10, counts).render();
        // background + ocean + 2 cells = 4 rects.
        assert_eq!(svg.matches("<rect").count(), 4);
        assert!(svg.contains("map"));
    }

    #[test]
    #[should_panic(expected = "counts shape mismatch")]
    fn wrong_shape_panics() {
        Heatmap::new("m", 3, 3, vec![0; 8]);
    }
}
