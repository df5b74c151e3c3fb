//! Numeric-invariant assertion layer.
//!
//! Estimation pipelines fail most insidiously not by crashing but by
//! silently propagating a NaN or a negative count into a correlation
//! that still prints a plausible number. This module centralises the
//! invariant checks the rest of the workspace threads through its
//! numeric hot paths:
//!
//! * [`debug_assert_finite`] — the value is neither NaN nor ±∞;
//! * [`debug_assert_nonneg`] — finite and `>= 0` (counts, distances, flows);
//! * [`debug_assert_prob`] — finite and in `[0, 1]` (rates, shares, p-values);
//! * [`debug_assert_finite_slice`] — every element is finite.
//!
//! Each value check returns its input so it can wrap an expression in
//! place:
//!
//! ```
//! use tweetmob_stats::check::debug_assert_prob;
//!
//! let hits = 3.0;
//! let used = 4.0;
//! let rate = debug_assert_prob(hits / used, "hit rate");
//! assert_eq!(rate, 0.75);
//! ```
//!
//! The checks compile to a pass-through in release builds, so they fit
//! per-observation hot loops (OD-matrix assembly, model prediction)
//! where a release-mode branch per value is not acceptable.
//!
//! A check panics on violation: a failed invariant here is a bug in the
//! caller (or corrupt upstream data), never a recoverable condition —
//! recoverable validation belongs to [`crate::StatsError`].

/// Asserts that `value` is finite (not NaN, not ±∞) and returns it.
///
/// # Panics
///
/// If `value` is NaN or infinite; `what` names the quantity in the
/// panic message.
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
fn assert_finite(value: f64, what: &str) -> f64 {
    assert!(
        value.is_finite(),
        "numeric invariant violated: {what} must be finite, got {value}"
    );
    value
}

/// Asserts that `value` is finite and non-negative and returns it.
///
/// # Panics
///
/// If `value` is NaN, infinite or negative.
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
fn assert_nonneg(value: f64, what: &str) -> f64 {
    assert!(
        value.is_finite() && value >= 0.0,
        "numeric invariant violated: {what} must be finite and >= 0, got {value}"
    );
    value
}

/// Asserts that `value` is a probability — finite and in `[0, 1]` — and
/// returns it.
///
/// # Panics
///
/// If `value` is NaN, infinite or outside `[0, 1]`.
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
fn assert_prob(value: f64, what: &str) -> f64 {
    assert!(
        value.is_finite() && (0.0..=1.0).contains(&value),
        "numeric invariant violated: {what} must be a probability in [0, 1], got {value}"
    );
    value
}

/// Asserts that every element of `values` is finite.
///
/// # Panics
///
/// On the first NaN/±∞ element, reporting its index.
fn assert_finite_slice(values: &[f64], what: &str) {
    for (i, &v) in values.iter().enumerate() {
        assert!(
            v.is_finite(),
            "numeric invariant violated: {what}[{i}] must be finite, got {v}"
        );
    }
}

/// Asserts in debug builds that `value` is finite (not NaN, not ±∞);
/// a pass-through in release builds.
#[inline]
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
pub fn debug_assert_finite(value: f64, what: &str) -> f64 {
    if cfg!(debug_assertions) {
        assert_finite(value, what)
    } else {
        value
    }
}

/// Asserts in debug builds that `value` is finite and non-negative; a
/// pass-through in release builds.
#[inline]
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
pub fn debug_assert_nonneg(value: f64, what: &str) -> f64 {
    if cfg!(debug_assertions) {
        assert_nonneg(value, what)
    } else {
        value
    }
}

/// Asserts in debug builds that `value` is a probability — finite and
/// in `[0, 1]`; a pass-through in release builds.
#[inline]
#[must_use = "the checked value should be used; call only for its side effect via `let _ =` if not"]
pub fn debug_assert_prob(value: f64, what: &str) -> f64 {
    if cfg!(debug_assertions) {
        assert_prob(value, what)
    } else {
        value
    }
}

/// Asserts in debug builds that every element of `values` is finite,
/// reporting the first offending index; a no-op in release builds.
#[inline]
pub fn debug_assert_finite_slice(values: &[f64], what: &str) {
    if cfg!(debug_assertions) {
        assert_finite_slice(values, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_passes_through() {
        assert_eq!(assert_finite(1.5, "x"), 1.5);
        assert_eq!(assert_finite(-3.0, "x"), -3.0);
        assert_eq!(assert_finite(0.0, "x"), 0.0);
    }

    #[test]
    #[should_panic(expected = "flow must be finite")]
    fn finite_rejects_nan() {
        let _ = assert_finite(f64::NAN, "flow");
    }

    #[test]
    #[should_panic(expected = "flow must be finite")]
    fn finite_rejects_infinity() {
        let _ = assert_finite(f64::INFINITY, "flow");
    }

    #[test]
    fn nonneg_passes_through() {
        assert_eq!(assert_nonneg(0.0, "count"), 0.0);
        assert_eq!(assert_nonneg(42.0, "count"), 42.0);
    }

    #[test]
    #[should_panic(expected = "count must be finite and >= 0")]
    fn nonneg_rejects_negative() {
        let _ = assert_nonneg(-1e-9, "count");
    }

    #[test]
    #[should_panic(expected = "count must be finite and >= 0")]
    fn nonneg_rejects_nan() {
        let _ = assert_nonneg(f64::NAN, "count");
    }

    #[test]
    fn prob_accepts_boundaries() {
        assert_eq!(assert_prob(0.0, "p"), 0.0);
        assert_eq!(assert_prob(1.0, "p"), 1.0);
        assert_eq!(assert_prob(0.5, "p"), 0.5);
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn prob_rejects_above_one() {
        let _ = assert_prob(1.0 + 1e-12, "p");
    }

    #[test]
    #[should_panic(expected = "p must be a probability")]
    fn prob_rejects_nan() {
        let _ = assert_prob(f64::NAN, "p");
    }

    #[test]
    fn slice_check_passes_on_finite_input() {
        assert_finite_slice(&[1.0, 2.0, -3.0], "xs");
        assert_finite_slice(&[], "xs");
    }

    #[test]
    #[should_panic(expected = "xs[1] must be finite")]
    fn slice_check_reports_offending_index() {
        assert_finite_slice(&[1.0, f64::NAN, 3.0], "xs");
    }

    #[test]
    fn debug_variants_pass_through_valid_values() {
        assert_eq!(debug_assert_finite(2.0, "x"), 2.0);
        assert_eq!(debug_assert_nonneg(2.0, "x"), 2.0);
        assert_eq!(debug_assert_prob(0.25, "x"), 0.25);
        debug_assert_finite_slice(&[1.0], "xs");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "must be finite"))]
    fn debug_variant_panics_only_with_debug_assertions() {
        let v = debug_assert_finite(f64::NAN, "x");
        // Release builds reach here with the value passed through.
        assert!(v.is_nan());
    }
}
