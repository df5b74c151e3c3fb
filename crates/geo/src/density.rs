//! Density rasterisation for tweet-density maps (paper Figure 1).
//!
//! Figure 1 of the paper shows geo-tagged tweets binned on a grid over
//! Australia with a logarithmic colour scale spanning 10⁰…10⁵ tweets per
//! cell. [`DensityGrid`] reproduces the underlying raster: accumulate
//! counts per cell, then read them back linearly, as `log10`, or as a
//! coarse ASCII rendering for terminal reports.

use crate::bbox::BoundingBox;
use crate::point::Point;

/// One non-empty raster cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityCell {
    /// Column index (west → east).
    pub col: usize,
    /// Row index (south → north).
    pub row: usize,
    /// Cell centre.
    pub center: Point,
    /// Number of points accumulated into the cell.
    pub count: u64,
}

/// A fixed-extent counting raster.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    bbox: BoundingBox,
    cell_deg: f64,
    nx: usize,
    ny: usize,
    counts: Vec<u64>,
    total: u64,
    dropped: u64,
}

impl DensityGrid {
    /// Creates an empty raster covering `bbox` with `cell_deg`-degree
    /// cells (clamped to a minimum of 1e-6°).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a floored, non-negative cell count; `as` saturates past usize::MAX"
    )]
    pub fn new(bbox: BoundingBox, cell_deg: f64) -> Self {
        let cell_deg = cell_deg.max(1e-6);
        let nx = (bbox.lon_span() / cell_deg).floor() as usize + 1;
        let ny = (bbox.lat_span() / cell_deg).floor() as usize + 1;
        Self {
            bbox,
            cell_deg,
            nx,
            ny,
            counts: vec![0; nx * ny],
            total: 0,
            dropped: 0,
        }
    }

    /// Number of columns.
    #[inline]
    pub fn width(&self) -> usize {
        self.nx
    }

    /// Number of rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.ny
    }

    /// Points accumulated inside the extent.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Points that fell outside the extent and were ignored.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds one point; points outside the extent are counted in
    /// [`DensityGrid::dropped`] and otherwise ignored.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a floored, non-negative offset inside the extent, clamped to the last cell"
    )]
    pub fn add(&mut self, p: Point) {
        if !self.bbox.contains(p) {
            self.dropped += 1;
            return;
        }
        let cx = (((p.lon - self.bbox.min_lon) / self.cell_deg).floor() as usize).min(self.nx - 1);
        let cy = (((p.lat - self.bbox.min_lat) / self.cell_deg).floor() as usize).min(self.ny - 1);
        self.counts[cy * self.nx + cx] += 1;
        self.total += 1;
    }

    /// Accumulates every point in the iterator.
    pub fn extend<I: IntoIterator<Item = Point>>(&mut self, points: I) {
        for p in points {
            self.add(p);
        }
    }

    /// Raw count at `(col, row)`; `None` when out of bounds.
    pub fn count(&self, col: usize, row: usize) -> Option<u64> {
        (col < self.nx && row < self.ny).then(|| self.counts[row * self.nx + col])
    }

    /// All non-empty cells, in row-major order (south-west first).
    fn nonempty_cells(&self) -> Vec<DensityCell> {
        let mut out = Vec::new();
        for row in 0..self.ny {
            for col in 0..self.nx {
                let count = self.counts[row * self.nx + col];
                if count > 0 {
                    out.push(DensityCell {
                        col,
                        row,
                        center: self.cell_center(col, row),
                        count,
                    });
                }
            }
        }
        out
    }

    /// The `n` densest cells, descending by count (ties by row-major
    /// position).
    pub fn top_cells(&self, n: usize) -> Vec<DensityCell> {
        let mut cells = self.nonempty_cells();
        cells.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then((a.row, a.col).cmp(&(b.row, b.col)))
        });
        cells.truncate(n);
        cells
    }

    /// Geographic centre of cell `(col, row)`.
    fn cell_center(&self, col: usize, row: usize) -> Point {
        Point::new_unchecked(
            self.bbox.min_lat + (row as f64 + 0.5) * self.cell_deg,
            self.bbox.min_lon + (col as f64 + 0.5) * self.cell_deg,
        )
    }

    /// Maximum cell count.
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Renders the raster as ASCII art, north at the top: ` ` for empty,
    /// then `.:-=+*#%@` on a log scale up to the maximum count. Each output
    /// row covers `downsample` raster rows/cols aggregated by sum.
    pub fn render_ascii(&self, downsample: usize) -> String {
        let ds = downsample.max(1);
        let out_rows = self.ny.div_ceil(ds);
        let out_cols = self.nx.div_ceil(ds);
        let ramp: &[u8] = b".:-=+*#%@";
        // Aggregate into the coarse raster.
        let mut agg = vec![0u64; out_rows * out_cols];
        for row in 0..self.ny {
            for col in 0..self.nx {
                agg[(row / ds) * out_cols + col / ds] += self.counts[row * self.nx + col];
            }
        }
        let max = agg.iter().copied().max().unwrap_or(0).max(1) as f64;
        let log_max = max.log10().max(1e-9);
        let mut s = String::with_capacity(out_rows * (out_cols + 1));
        for row in (0..out_rows).rev() {
            for col in 0..out_cols {
                let c = agg[row * out_cols + col];
                if c == 0 {
                    s.push(' ');
                } else {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "rounded and clamped to [0, ramp.len() - 1]"
                    )]
                    let level = ((c as f64).log10() / log_max * (ramp.len() - 1) as f64)
                        .round()
                        .clamp(0.0, (ramp.len() - 1) as f64)
                        as usize;
                    s.push(ramp[level] as char);
                }
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::AUSTRALIA_BBOX;

    fn unit_box() -> BoundingBox {
        BoundingBox::new(0.0, 10.0, 0.0, 10.0).unwrap()
    }

    #[test]
    fn counts_accumulate_in_correct_cell() {
        let mut g = DensityGrid::new(unit_box(), 1.0);
        g.add(Point::new_unchecked(0.5, 0.5));
        g.add(Point::new_unchecked(0.6, 0.4));
        g.add(Point::new_unchecked(5.5, 7.5));
        assert_eq!(g.count(0, 0), Some(2));
        assert_eq!(g.count(7, 5), Some(1));
        assert_eq!(g.total(), 3);
        assert_eq!(g.dropped(), 0);
    }

    #[test]
    fn out_of_extent_points_are_dropped() {
        let mut g = DensityGrid::new(unit_box(), 1.0);
        g.add(Point::new_unchecked(-1.0, 5.0));
        g.add(Point::new_unchecked(5.0, 11.0));
        assert_eq!(g.total(), 0);
        assert_eq!(g.dropped(), 2);
    }

    #[test]
    fn boundary_points_land_in_last_cell() {
        let mut g = DensityGrid::new(unit_box(), 1.0);
        g.add(Point::new_unchecked(10.0, 10.0)); // exact max corner
        assert_eq!(g.count(g.width() - 1, g.height() - 1), Some(1));
    }

    #[test]
    fn out_of_bounds_cell_access_is_none() {
        let g = DensityGrid::new(unit_box(), 1.0);
        assert_eq!(g.count(1000, 0), None);
        assert_eq!(g.count(0, 1000), None);
    }

    #[test]
    fn top_cells_sorted_descending() {
        let mut g = DensityGrid::new(unit_box(), 1.0);
        for _ in 0..5 {
            g.add(Point::new_unchecked(0.5, 0.5));
        }
        for _ in 0..3 {
            g.add(Point::new_unchecked(5.5, 5.5));
        }
        g.add(Point::new_unchecked(9.5, 9.5));
        let top = g.top_cells(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].count, 5);
        assert_eq!(top[1].count, 3);
    }

    #[test]
    fn nonempty_cells_total_matches() {
        let mut g = DensityGrid::new(unit_box(), 2.5);
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new_unchecked((i % 10) as f64, (i / 10) as f64 * 2.0))
            .collect();
        g.extend(pts);
        let sum: u64 = g.nonempty_cells().iter().map(|c| c.count).sum();
        assert_eq!(sum, g.total());
    }

    #[test]
    fn cell_center_is_inside_cell() {
        let g = DensityGrid::new(unit_box(), 1.0);
        let c = g.cell_center(3, 7);
        assert_eq!(c.lon, 3.5);
        assert_eq!(c.lat, 7.5);
    }

    #[test]
    fn ascii_render_shape_and_content() {
        let mut g = DensityGrid::new(unit_box(), 1.0);
        for _ in 0..1000 {
            g.add(Point::new_unchecked(9.5, 9.5)); // top-right, dense
        }
        g.add(Point::new_unchecked(0.5, 0.5)); // bottom-left, sparse
        let art = g.render_ascii(1);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), g.height());
        // North at top: the dense northern cell renders as the ramp max and
        // must appear on an earlier line than the sparse southern cell,
        // which renders as the ramp minimum '.'.
        let dense_line = lines.iter().position(|l| l.contains('@')).unwrap();
        let sparse_line = lines.iter().position(|l| l.contains('.')).unwrap();
        assert!(
            dense_line < sparse_line,
            "dense {dense_line} sparse {sparse_line}"
        );
    }

    #[test]
    fn ascii_downsample_shrinks_output() {
        let g = DensityGrid::new(AUSTRALIA_BBOX, 0.5);
        let fine = g.render_ascii(1);
        let coarse = g.render_ascii(4);
        assert!(coarse.lines().count() < fine.lines().count());
        assert_eq!(coarse.lines().count(), g.height().div_ceil(4));
    }

    #[test]
    fn empty_grid_renders_blank() {
        let g = DensityGrid::new(unit_box(), 1.0);
        let art = g.render_ascii(1);
        assert!(art.chars().all(|c| c == ' ' || c == '\n'));
        assert_eq!(g.max_count(), 0);
    }
}
