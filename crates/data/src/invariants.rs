//! The invariants of a [`TweetDataset`](crate::TweetDataset)'s columns,
//! checked incrementally.
//!
//! [`ColumnCheck`] is fed the columns in their `TWC0` section order
//! (user ids, user offsets, timestamps, latitudes, longitudes), either
//! whole (`TweetDataset::from_sorted_columns`) or one decoded chunk at a
//! time while the chunk is still in cache (`columnar::read_columnar`).
//! Either way it reports the same fault: each check has a rank, its
//! position in the order the checks were once run one after another,
//! and the lowest-ranked fault wins, the first found within a rank.

use crate::time::Timestamp;
use crate::tweet::UserId;

/// One violated invariant, in rank order.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Lengths {
        times: usize,
        lats: usize,
        lons: usize,
    },
    TooManyRows {
        rows: usize,
    },
    IndexShape {
        users: usize,
        offsets: usize,
    },
    OffsetsStart,
    OffsetsEnd {
        rows: usize,
        last: u32,
    },
    OffsetsOrder,
    UserOrder,
    /// The index of the first user whose timestamps decrease.
    Times {
        user: usize,
    },
    Latitude {
        row: usize,
        value: f64,
    },
    Longitude {
        row: usize,
        value: f64,
    },
}

impl Fault {
    /// The ranks a feed checks against before it scans its chunk.
    const INDEX_SHAPE: u8 = 2;
    const TIMES: u8 = 7;
    const LATITUDE: u8 = 8;
    const LONGITUDE: u8 = 9;

    fn rank(self) -> u8 {
        match self {
            Fault::Lengths { .. } => 0,
            Fault::TooManyRows { .. } => 1,
            Fault::IndexShape { .. } => Self::INDEX_SHAPE,
            Fault::OffsetsStart => 3,
            Fault::OffsetsEnd { .. } => 4,
            Fault::OffsetsOrder => 5,
            Fault::UserOrder => 6,
            Fault::Times { .. } => Self::TIMES,
            Fault::Latitude { .. } => Self::LATITUDE,
            Fault::Longitude { .. } => Self::LONGITUDE,
        }
    }

    fn message(self, users: &[UserId]) -> String {
        match self {
            Fault::Lengths { times, lats, lons } => {
                format!("column length mismatch: {times} times, {lats} lats, {lons} lons")
            }
            Fault::TooManyRows { rows } => {
                format!("row count {rows} exceeds the u32 offset space")
            }
            Fault::IndexShape { users, offsets } => format!(
                "user index shape: {users} users need {} offsets, found {offsets}",
                users + 1
            ),
            Fault::OffsetsStart => "user offsets must start at 0".to_string(),
            Fault::OffsetsEnd { rows, last } => {
                format!("user offsets must end at the row count {rows}, found {last}")
            }
            Fault::OffsetsOrder => {
                "user offsets must be strictly increasing (no empty users)".to_string()
            }
            Fault::UserOrder => "unsorted input: user ids must be strictly ascending".to_string(),
            Fault::Times { user } => format!(
                "unsorted input: timestamps of user {} are not non-decreasing",
                users[user].0
            ),
            Fault::Latitude { row, value } => format!("row {row}: invalid latitude {value}"),
            Fault::Longitude { row, value } => format!("row {row}: invalid longitude {value}"),
        }
    }
}

/// The incremental checker: the declared shape, the lowest-ranked fault
/// so far, and where each column's feed has got to.
pub(crate) struct ColumnCheck {
    offsets: usize,
    rows: usize,
    fault: Option<Fault>,
    last_user: Option<UserId>,
    offsets_seen: usize,
    last_offset: Option<u32>,
    times_seen: usize,
    last_time: Option<Timestamp>,
    /// Index of the first user offset not below `times_seen`.
    next_start: usize,
    lats_seen: usize,
    lons_seen: usize,
}

impl ColumnCheck {
    /// A checker for columns of the given lengths; the shape faults are
    /// known at once.
    pub(crate) fn new(
        users: usize,
        offsets: usize,
        times: usize,
        lats: usize,
        lons: usize,
    ) -> Self {
        let mut check = Self {
            offsets,
            rows: times,
            fault: None,
            last_user: None,
            offsets_seen: 0,
            last_offset: None,
            times_seen: 0,
            last_time: None,
            next_start: 0,
            lats_seen: 0,
            lons_seen: 0,
        };
        if lats != times || lons != times {
            check.record(Fault::Lengths { times, lats, lons });
        }
        if u32::try_from(times).is_err() {
            check.record(Fault::TooManyRows { rows: times });
        }
        if offsets != users + 1 {
            check.record(Fault::IndexShape { users, offsets });
        }
        check
    }

    /// Keeps `fault` if it outranks the one held.
    fn record(&mut self, fault: Fault) {
        if self.fault.is_none_or(|held| fault.rank() < held.rank()) {
            self.fault = Some(fault);
        }
    }

    /// Whether a fault of rank `rank` or lower is held, so a check of
    /// that rank can find nothing that would be reported.
    fn settled(&self, rank: u8) -> bool {
        self.fault.is_some_and(|held| held.rank() <= rank)
    }

    /// The next chunk of user ids: strictly ascending.
    pub(crate) fn users(&mut self, chunk: &[UserId]) {
        let (Some(&first), Some(&last)) = (chunk.first(), chunk.last()) else {
            return;
        };
        let across = self.last_user.is_some_and(|prev| prev >= first);
        if across || chunk.windows(2).any(|w| w[0] >= w[1]) {
            self.record(Fault::UserOrder);
        }
        self.last_user = Some(last);
    }

    /// The next chunk of user offsets: starting at 0, strictly
    /// increasing, ending at the row count.
    pub(crate) fn offsets(&mut self, chunk: &[u32]) {
        if self.settled(Fault::INDEX_SHAPE) {
            return;
        }
        for &o in chunk {
            if self.offsets_seen == 0 && o != 0 {
                self.record(Fault::OffsetsStart);
            }
            if self.last_offset.is_some_and(|prev| prev >= o) {
                self.record(Fault::OffsetsOrder);
            }
            self.last_offset = Some(o);
            self.offsets_seen += 1;
            if self.offsets_seen == self.offsets && o as usize != self.rows {
                self.record(Fault::OffsetsEnd {
                    rows: self.rows,
                    last: o,
                });
            }
        }
    }

    /// The next chunk of timestamps, given the whole offsets column:
    /// non-decreasing within each user.
    ///
    /// Checked with no per-user branch: every decrease in the chunk is
    /// counted, then every decrease at a user's first row; the two
    /// counts differ only when a decrease lies inside a user, and only
    /// then are the rows searched for it.
    pub(crate) fn times(&mut self, chunk: &[Timestamp], offsets: &[u32]) {
        let lo = self.times_seen;
        let hi = lo + chunk.len();
        self.times_seen = hi;
        let prev = self.last_time;
        self.last_time = chunk.last().copied().or(prev);
        // Any lower-ranked fault outranks a time fault, and with none the
        // offsets have been fed whole and are a valid CSR index.
        if chunk.is_empty() || self.settled(Fault::TIMES) {
            return;
        }
        // Whether the timestamp at `row` (in this chunk) is below the one
        // before it, which for the chunk's first row is the last one fed.
        let drops = |row: usize| {
            let before = if row == lo {
                prev
            } else {
                Some(chunk[row - lo - 1])
            };
            before.is_some_and(|p| chunk[row - lo] < p)
        };
        let decreases = usize::from(drops(lo))
            + chunk
                .iter()
                .zip(&chunk[1..])
                .map(|(a, b)| usize::from(b < a))
                .sum::<usize>();
        let mut at_starts = 0;
        while let Some(&start) = offsets.get(self.next_start) {
            let start = start as usize;
            if start >= hi {
                break;
            }
            at_starts += usize::from(start >= lo && drops(start));
            self.next_start += 1;
        }
        if decreases == at_starts {
            return;
        }
        let inside = (lo..hi).filter(|&row| drops(row)).find_map(|row| {
            let user = offsets
                .partition_point(|&o| o as usize <= row)
                .checked_sub(1)?;
            (offsets[user] as usize != row).then_some(user)
        });
        if let Some(user) = inside {
            self.record(Fault::Times { user });
        }
    }

    /// The next chunk of latitudes: finite and within ±90°.
    pub(crate) fn lats(&mut self, chunk: &[f64]) {
        let lo = self.lats_seen;
        self.lats_seen += chunk.len();
        if self.settled(Fault::LATITUDE) {
            return;
        }
        if let Some(i) = first_outside(chunk, 90.0) {
            self.record(Fault::Latitude {
                row: lo + i,
                value: chunk[i],
            });
        }
    }

    /// The next chunk of longitudes: finite and within ±180°.
    pub(crate) fn lons(&mut self, chunk: &[f64]) {
        let lo = self.lons_seen;
        self.lons_seen += chunk.len();
        if self.settled(Fault::LONGITUDE) {
            return;
        }
        if let Some(i) = first_outside(chunk, 180.0) {
            self.record(Fault::Longitude {
                row: lo + i,
                value: chunk[i],
            });
        }
    }

    /// The held fault's message, given the whole user-id column.
    pub(crate) fn finish(self, users: &[UserId]) -> Result<(), String> {
        self.fault.map_or(Ok(()), |fault| Err(fault.message(users)))
    }
}

/// The first value that is not a finite number within `±limit`. The
/// whole chunk is folded first with no early exit, so the common clean
/// chunk is one branch-free pass.
fn first_outside(values: &[f64], limit: f64) -> Option<usize> {
    let inside = |v: f64| (v >= -limit) & (v <= limit);
    if values.iter().fold(true, |ok, &v| ok & inside(v)) {
        return None;
    }
    values.iter().position(|&v| !inside(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tweetmob_stats::rng::SplitMix64;

    struct Columns {
        users: Vec<UserId>,
        offsets: Vec<u32>,
        times: Vec<Timestamp>,
        lats: Vec<f64>,
        lons: Vec<f64>,
    }

    /// The checks one after another, each returning at its first fault:
    /// the order the ranks stand for.
    fn sequential_reference(c: &Columns) -> Result<(), String> {
        let n = c.times.len();
        if c.lats.len() != n || c.lons.len() != n {
            return Err(format!(
                "column length mismatch: {n} times, {} lats, {} lons",
                c.lats.len(),
                c.lons.len()
            ));
        }
        if c.offsets.len() != c.users.len() + 1 {
            return Err(format!(
                "user index shape: {} users need {} offsets, found {}",
                c.users.len(),
                c.users.len() + 1,
                c.offsets.len()
            ));
        }
        if c.offsets.first() != Some(&0) {
            return Err("user offsets must start at 0".to_string());
        }
        let last = c.offsets.last().copied().unwrap_or(0);
        if last as usize != n {
            return Err(format!(
                "user offsets must end at the row count {n}, found {last}"
            ));
        }
        if c.offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err("user offsets must be strictly increasing (no empty users)".to_string());
        }
        if c.users.windows(2).any(|w| w[0] >= w[1]) {
            return Err("unsorted input: user ids must be strictly ascending".to_string());
        }
        for (i, w) in c.offsets.windows(2).enumerate() {
            let slice = &c.times[w[0] as usize..w[1] as usize];
            if slice.windows(2).any(|t| t[0] > t[1]) {
                return Err(format!(
                    "unsorted input: timestamps of user {} are not non-decreasing",
                    c.users[i].0
                ));
            }
        }
        let bad = |v: f64, limit: f64| !v.is_finite() || !(-limit..=limit).contains(&v);
        if let Some(i) = c.lats.iter().position(|&v| bad(v, 90.0)) {
            return Err(format!("row {i}: invalid latitude {}", c.lats[i]));
        }
        if let Some(i) = c.lons.iter().position(|&v| bad(v, 180.0)) {
            return Err(format!("row {i}: invalid longitude {}", c.lons[i]));
        }
        Ok(())
    }

    /// Feeds the columns to a [`ColumnCheck`] in chunks of random sizes
    /// up to `max_chunk`, in section order.
    fn chunked(c: &Columns, rng: &mut SplitMix64, max_chunk: usize) -> Result<(), String> {
        fn feed<T>(column: &[T], rng: &mut SplitMix64, max: usize, mut f: impl FnMut(&[T])) {
            let mut at = 0;
            while at < column.len() {
                let end = (at + 1 + rng.next_below(max)).min(column.len());
                f(&column[at..end]);
                at = end;
            }
        }
        let mut check = ColumnCheck::new(
            c.users.len(),
            c.offsets.len(),
            c.times.len(),
            c.lats.len(),
            c.lons.len(),
        );
        feed(&c.users, rng, max_chunk, |x| check.users(x));
        feed(&c.offsets, rng, max_chunk, |x| check.offsets(x));
        feed(&c.times, rng, max_chunk, |x| check.times(x, &c.offsets));
        feed(&c.lats, rng, max_chunk, |x| check.lats(x));
        feed(&c.lons, rng, max_chunk, |x| check.lons(x));
        check.finish(&c.users)
    }

    /// Valid columns of up to 40 users, then up to three random faults.
    fn random_columns(rng: &mut SplitMix64) -> Columns {
        let mut c = Columns {
            users: Vec::new(),
            offsets: vec![0],
            times: Vec::new(),
            lats: Vec::new(),
            lons: Vec::new(),
        };
        let mut id = 0;
        for _ in 0..rng.next_below(40) {
            id += 1 + rng.next_below(3) as u32;
            c.users.push(UserId(id));
            let mut t = rng.next_below(1_000) as i64;
            for _ in 0..1 + rng.next_below(6) {
                t += rng.next_below(3) as i64;
                c.times.push(Timestamp::from_secs(t));
                c.lats.push(rng.range_f64(-90.0, 90.0));
                c.lons.push(rng.range_f64(-180.0, 180.0));
            }
            c.offsets.push(c.times.len() as u32);
        }
        let odd = [f64::NAN, f64::INFINITY, -95.0, 200.0, 90.0, -180.0];
        for _ in 0..rng.next_below(4) {
            let n = c.times.len().max(1);
            match rng.next_below(7) {
                0 if !c.users.is_empty() => {
                    let i = rng.next_below(c.users.len());
                    c.users[i] = UserId(rng.next_below(100) as u32);
                }
                1 => {
                    let i = rng.next_below(c.offsets.len());
                    c.offsets[i] = rng.next_below(n + 2) as u32;
                }
                2 if !c.times.is_empty() => {
                    let i = rng.next_below(c.times.len());
                    c.times[i] = Timestamp::from_secs(rng.next_below(1_100) as i64);
                }
                3 if !c.lats.is_empty() => {
                    let i = rng.next_below(c.lats.len());
                    c.lats[i] = odd[rng.next_below(odd.len())];
                }
                4 if !c.lons.is_empty() => {
                    let i = rng.next_below(c.lons.len());
                    c.lons[i] = odd[rng.next_below(odd.len())];
                }
                5 => {
                    c.users.pop();
                }
                _ => {
                    c.lons.pop();
                }
            }
        }
        c
    }

    #[test]
    fn chunked_feeds_report_the_sequential_first_fault() {
        let kinds = [
            "length mismatch",
            "index shape",
            "start at 0",
            "end at the row count",
            "strictly increasing",
            "user ids",
            "timestamps",
            "latitude",
            "longitude",
        ];
        let mut seen = vec![0; kinds.len()];
        for seed in 0..2_000 {
            let mut rng = SplitMix64::new(seed);
            let c = random_columns(&mut rng);
            let want = sequential_reference(&c);
            if let Err(message) = &want {
                let kind = kinds.iter().position(|k| message.contains(k));
                seen[kind.unwrap_or_else(|| panic!("unknown fault {message}"))] += 1;
            }
            for max_chunk in [1, 3, 7, usize::MAX / 2] {
                assert_eq!(chunked(&c, &mut rng, max_chunk), want, "seed {seed}");
            }
        }
        // Every kind of fault but the 2³² row count came up.
        assert!(seen.iter().all(|&k| k > 0), "{seen:?}");
    }
}
