//! Log axis mapping: data coordinates → pixels, with decade ticks.

/// A base-10 logarithmic axis: a positive data range plus a pixel range.
#[derive(Debug, Clone)]
pub(crate) struct Axis {
    data_min: f64,
    data_max: f64,
    px_min: f64,
    px_max: f64,
}

impl Axis {
    /// Builds an axis. The data bounds are clamped to a positive floor; a
    /// degenerate range is widened by a factor of two each way so
    /// projection never divides by zero.
    pub(crate) fn new(data_min: f64, data_max: f64, px_min: f64, px_max: f64) -> Self {
        let (mut lo, mut hi) = (data_min.max(1e-12), data_max.max(1e-12));
        if hi <= lo || hi.is_nan() || lo.is_nan() {
            lo /= 2.0;
            hi *= 2.0;
        }
        Self {
            data_min: lo,
            data_max: hi,
            px_min,
            px_max,
        }
    }

    /// Projects a data value to pixels; non-positive values have no
    /// position on the axis.
    pub(crate) fn project(&self, v: f64) -> Option<f64> {
        if v <= 0.0 {
            return None;
        }
        let t = (v.ln() - self.data_min.ln()) / (self.data_max.ln() - self.data_min.ln());
        Some(self.px_min + t * (self.px_max - self.px_min))
    }

    /// Tick positions in data space: the decades inside the data bounds.
    pub(crate) fn ticks(&self) -> Vec<f64> {
        let lo = self.data_min.log10().ceil() as i32;
        let hi = self.data_max.log10().floor() as i32;
        (lo..=hi).map(|e| 10f64.powi(e)).collect()
    }

    /// Compact label for a decade tick: `10^k` as `1ek`.
    pub(crate) fn tick_label(&self, v: f64) -> String {
        format!("1e{}", v.log10().round() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_is_decade_uniform() {
        let a = Axis::new(1.0, 100.0, 0.0, 100.0);
        assert!((a.project(1.0).unwrap() - 0.0).abs() < 1e-9);
        assert!((a.project(10.0).unwrap() - 50.0).abs() < 1e-9);
        assert!((a.project(100.0).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(a.project(0.0), None);
        assert_eq!(a.project(-5.0), None);
    }

    #[test]
    fn inverted_pixel_range_supported() {
        // SVG y grows downward; charts pass px_min > px_max for y.
        let a = Axis::new(1.0, 10.0, 300.0, 50.0);
        assert_eq!(a.project(1.0), Some(300.0));
        assert_eq!(a.project(10.0), Some(50.0));
    }

    #[test]
    fn degenerate_range_is_widened() {
        // Widened to 2.5..10, so 5 lands mid-axis.
        let a = Axis::new(5.0, 5.0, 0.0, 100.0);
        assert!((a.project(5.0).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn ticks_are_decades() {
        let a = Axis::new(3.0, 5_000.0, 0.0, 1.0);
        assert_eq!(a.ticks(), vec![10.0, 100.0, 1_000.0]);
        assert_eq!(a.tick_label(100.0), "1e2");
    }

    #[test]
    fn bounds_clamped_positive() {
        // A non-positive lower bound would make every projection NaN.
        let a = Axis::new(-3.0, 10.0, 0.0, 1.0);
        assert!(a.project(1.0).unwrap().is_finite());
        assert_eq!(a.project(10.0), Some(1.0));
    }
}
