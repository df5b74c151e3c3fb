//! Minimal time handling: epoch-second timestamps.
//!
//! The workspace deliberately avoids a calendar dependency — all the
//! paper's temporal arithmetic is differences of collection-window
//! timestamps (waiting times, trip ordering), for which Unix epoch seconds
//! suffice. The paper's collection window (September 2013 – April 2014) is
//! exposed as constants for the synthetic generator.

use std::fmt;

/// Seconds per hour.
pub(crate) const SECS_PER_HOUR: i64 = 3_600;

/// A Unix timestamp in whole seconds.
///
/// Ordered, `Copy`, 8 bytes. Negative values (pre-1970) are permitted —
/// arithmetic is plain `i64`. The dataset readers accept only times in
/// years 1–9999 (UTC), so the difference of any two loaded times fits in
/// an `i64` with room to spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// Start of the paper's collection window: 2013-09-01T00:00:00Z.
    pub const COLLECTION_START: Timestamp = Timestamp(1_377_993_600);
    /// End of the paper's collection window: 2014-04-30T23:59:59Z.
    pub const COLLECTION_END: Timestamp = Timestamp(1_398_902_399);

    /// The earliest time a dataset reader accepts: 0001-01-01T00:00:00Z.
    pub(crate) const FIRST_LOADABLE: Timestamp = Timestamp(-62_135_596_800);
    /// The latest time a dataset reader accepts: 9999-12-31T23:59:59Z.
    pub(crate) const LAST_LOADABLE: Timestamp = Timestamp(253_402_300_799);

    /// Whether a reader accepts this time: years 1–9999, the one range
    /// both dataset readers check.
    #[inline]
    pub(crate) fn is_loadable(self) -> bool {
        (self >= Self::FIRST_LOADABLE) & (self <= Self::LAST_LOADABLE)
    }

    /// Whether every time in `times` is loadable, in one pass of
    /// subtractions and ORs that needs no 64-bit compare per time (the
    /// baseline x86-64 target has none to vectorise): `t − FIRST` and
    /// `LAST − t` are both non-negative exactly when `t` is in range, and
    /// for a `t` outside it one of them is negative even after wrapping,
    /// so the OR of them all is non-negative exactly when all are in range.
    pub(crate) fn all_loadable(times: &[Timestamp]) -> bool {
        let (first, last) = (Self::FIRST_LOADABLE.0, Self::LAST_LOADABLE.0);
        let signs = times.iter().fold(0i64, |acc, t| {
            acc | t.0.wrapping_sub(first) | last.wrapping_sub(t.0)
        });
        signs >= 0
    }

    /// Wraps raw epoch seconds.
    #[inline]
    pub const fn from_secs(secs: i64) -> Self {
        Self(secs)
    }

    /// Raw epoch seconds.
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Signed difference `self − earlier`, in seconds. Cannot overflow
    /// for two loaded times (years 1–9999).
    #[inline]
    pub const fn seconds_since(self, earlier: Timestamp) -> i64 {
        self.0 - earlier.0
    }

    /// This timestamp shifted forward by `secs` (negative shifts back).
    #[inline]
    pub const fn plus_secs(self, secs: i64) -> Timestamp {
        Timestamp(self.0 + secs)
    }

    /// Whether the timestamp falls inside `[start, end]` inclusive.
    #[inline]
    pub fn within(self, start: Timestamp, end: Timestamp) -> bool {
        self >= start && self <= end
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_window_is_about_seven_months() {
        let days = Timestamp::COLLECTION_END.seconds_since(Timestamp::COLLECTION_START) / 86_400;
        assert_eq!(days, 241); // Sep(30)+Oct(31)+Nov(30)+Dec(31)+Jan(31)+Feb(28)+Mar(31)+Apr(30)-1 full days
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = Timestamp::from_secs(100);
        let b = Timestamp::from_secs(4_000);
        assert!(a < b);
        assert_eq!(b.seconds_since(a), 3_900);
        assert_eq!(a.seconds_since(b), -3_900);
    }

    #[test]
    fn plus_secs_shifts_both_ways() {
        let t = Timestamp::from_secs(1_000);
        assert_eq!(t.plus_secs(500).as_secs(), 1_500);
        assert_eq!(t.plus_secs(-2_000).as_secs(), -1_000);
    }

    #[test]
    fn within_is_inclusive() {
        let (s, e) = (Timestamp::from_secs(10), Timestamp::from_secs(20));
        assert!(Timestamp::from_secs(10).within(s, e));
        assert!(Timestamp::from_secs(20).within(s, e));
        assert!(Timestamp::from_secs(15).within(s, e));
        assert!(!Timestamp::from_secs(9).within(s, e));
        assert!(!Timestamp::from_secs(21).within(s, e));
    }

    #[test]
    fn loadable_range_is_years_1_to_9999() {
        let (first, last) = (Timestamp::FIRST_LOADABLE, Timestamp::LAST_LOADABLE);
        // 719,162 days from 0001-01-01 to 1970-01-01, and 2,932,897 from
        // 1970-01-01 to 10000-01-01 (proleptic Gregorian).
        assert_eq!(first.as_secs(), -719_162 * 86_400);
        assert_eq!(last.as_secs(), 2_932_897 * 86_400 - 1);
        assert!(first.is_loadable() && last.is_loadable());
        assert!(!first.plus_secs(-1).is_loadable() && !last.plus_secs(1).is_loadable());
        for secs in [
            i64::MIN,
            i64::MIN + 1,
            first.as_secs() - 1,
            first.as_secs(),
            0,
            last.as_secs(),
            last.as_secs() + 1,
            i64::MAX - 1,
            i64::MAX,
        ] {
            let t = Timestamp::from_secs(secs);
            assert_eq!(Timestamp::all_loadable(&[t]), t.is_loadable(), "{secs}");
            let pair = [Timestamp::from_secs(0), t];
            assert_eq!(Timestamp::all_loadable(&pair), t.is_loadable(), "{secs}");
        }
        assert!(Timestamp::all_loadable(&[]));
        assert!(last.seconds_since(first) < i64::MAX / 2);
    }

    #[test]
    fn display_shows_seconds() {
        assert_eq!(Timestamp::from_secs(42).to_string(), "42s");
    }
}
