//! Columnar binary dataset format (`.twc`, magic `TWC0`).
//!
//! `TWC0` serialises the in-memory [`TweetDataset`] layout *directly*:
//! four contiguous value columns plus the CSR user index, already sorted
//! by `(user, time)`.
//! Loading streams: a fixed-size header validation, then a straight
//! little-endian decode of each section into its column through one
//! reused ~1 MiB buffer — no per-record branch, no `Point` construction,
//! no re-sort, and no second image of the file. Each decoded chunk is
//! checked against the dataset's invariants while it is still in cache,
//! so the columns are never scanned a second time. At the paper's
//! 6.3 M tweets a load holds the ~160 MB of columns plus that one
//! buffer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset            size      field
//! 0                 4         magic  b"TWC0"
//! 4                 4         version (u32) — currently 1
//! 8                 8         tweet count n (u64)
//! 16                8         user count u (u64)
//! 24                4·u       unique user ids (u32, strictly ascending)
//! 24+4u             4·(u+1)   user offsets (u32 CSR: starts at 0, ends at n)
//! 24+4u+4(u+1)      8·n       timestamps (i64 seconds, non-decreasing per user)
//! …                 8·n       latitudes (f64)
//! …                 8·n       longitudes (f64)
//! ```
//!
//! The file length is fully determined by the header, so a body that
//! ends early or runs past it is a format error. Columns grow from the
//! bytes actually read, so a header that overstates its body costs no
//! more memory than the body itself. The sort and range invariants of
//! [`TweetDataset::from_sorted_columns`] are *verified* on load, never
//! re-established — an unsorted file is a format error, not a dataset
//! to fix up. The same checker serves both, fed one chunk at a time
//! here, and it reports the same first fault. The layout is settled
//! first: a body shorter or longer than the header declares is a
//! section-layout error even when its bytes also break an invariant.

use crate::dataset::TweetDataset;
use crate::invariants::ColumnCheck;
use crate::io::IoError;
use crate::time::Timestamp;
use crate::tweet::UserId;
use std::io::{ErrorKind, Read, Write};

/// File magic.
pub const MAGIC: [u8; 4] = *b"TWC0";
/// Current format version.
const VERSION: u32 = 1;
/// Fixed header bytes before the column sections.
const HEADER_BYTES: usize = 24;

/// Upper bound on the declared tweet count — a plausibility guard that
/// rejects corrupt headers before any section is read.
const MAX_RECORDS: u64 = 2_000_000_000;

/// Writes the dataset in columnar form. Column order matches the
/// in-memory layout, so the writer is five `write_all` streams with no
/// per-record assembly.
///
/// # Errors
///
/// Propagates write failures, including the final flush's.
pub fn write_columnar<W: Write>(ds: &TweetDataset, mut w: W) -> Result<(), IoError> {
    let _span = tweetmob_obs::span!("write_columnar");
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(ds.n_tweets() as u64).to_le_bytes());
    header.extend_from_slice(&(ds.n_users() as u64).to_le_bytes());
    w.write_all(&header)?;
    write_column(&mut w, ds.unique_users().iter().map(|u| u.0.to_le_bytes()))?;
    write_column(&mut w, ds.user_starts().iter().map(|s| s.to_le_bytes()))?;
    write_column(&mut w, ds.times().iter().map(|t| t.as_secs().to_le_bytes()))?;
    write_column(&mut w, ds.lats().iter().map(|v| v.to_le_bytes()))?;
    write_column(&mut w, ds.lons().iter().map(|v| v.to_le_bytes()))?;
    w.flush()?;
    Ok(())
}

/// Streams one column through a bounded buffer, so multi-hundred-MB
/// datasets never double in memory.
fn write_column<W: Write, const N: usize>(
    w: &mut W,
    values: impl Iterator<Item = [u8; N]>,
) -> Result<(), IoError> {
    const FLUSH_BYTES: usize = 1 << 16;
    let mut buf = Vec::with_capacity(FLUSH_BYTES + 8);
    for v in values {
        buf.extend_from_slice(&v);
        if buf.len() >= FLUSH_BYTES {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Reads a columnar dataset written by [`write_columnar`], streaming:
/// the 24-byte header is validated first, then each section is decoded
/// straight into its column through one reused 1 MiB buffer and checked
/// chunk by chunk, and a final one-byte read must find the end of the
/// stream. Columns grow from the bytes actually read, never from the
/// header's counts, so a header that overstates its body fails on the
/// first short read. An invariant fault is reported only once the
/// layout has been found sound.
///
/// # Errors
///
/// * [`IoError::Io`] — underlying read failure.
/// * [`IoError::Format`] — bad magic, unsupported version, implausible
///   counts, a body shorter or longer than the header declares, or
///   columns that violate the sort/range invariants checked by
///   [`TweetDataset::from_sorted_columns`]. No path is attached; callers
///   that know the file name add it to the message.
pub fn read_columnar<R: Read>(mut r: R) -> Result<TweetDataset, IoError> {
    let _span = tweetmob_obs::span!("read_columnar");
    let mut header = [0; HEADER_BYTES];
    let got = fill(&mut r, &mut header)?;
    if got < HEADER_BYTES {
        return Err(format_error(format!(
            "truncated header: {got} bytes, need {HEADER_BYTES}"
        )));
    }
    let magic = &header[0..4];
    if magic != MAGIC {
        return Err(format_error(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = u32::from_le_bytes(le(&header[4..8]));
    if version != VERSION {
        return Err(format_error(format!("unsupported version {version}")));
    }
    let n = u64::from_le_bytes(le(&header[8..16]));
    let u = u64::from_le_bytes(le(&header[16..24]));
    if n > MAX_RECORDS || u > n.max(1) {
        return Err(format_error(format!(
            "implausible counts: {n} tweets, {u} users"
        )));
    }
    let mut body = Sections {
        r,
        buf: vec![0; CHUNK_BYTES],
        at: HEADER_BYTES as u64,
        expected: HEADER_BYTES as u64 + 4 * u + 4 * (u + 1) + 3 * 8 * n,
    };
    // Both counts are at most MAX_RECORDS, well inside usize.
    let (users, rows) = (u as usize, n as usize);
    let mut check = ColumnCheck::new(users, users + 1, rows, rows, rows);
    let unique_users = body.column(u, |b| UserId(u32::from_le_bytes(b)), |c| check.users(c))?;
    let user_starts = body.column(u + 1, u32::from_le_bytes, |c| check.offsets(c))?;
    let times = body.column(
        n,
        |b| Timestamp::from_secs(i64::from_le_bytes(b)),
        |c| check.times(c, &user_starts),
    )?;
    let lats = body.column(n, f64::from_le_bytes, |c| check.lats(c))?;
    let lons = body.column(n, f64::from_le_bytes, |c| check.lons(c))?;
    body.end()?;
    check.finish(&unique_users).map_err(format_error)?;
    let ds = TweetDataset::from_checked_columns(unique_users, user_starts, times, lats, lons);
    tweetmob_obs::counter!("data/tweets_read").add(ds.n_tweets() as u64);
    Ok(ds)
}

/// Decodes a complete in-memory `TWC0` image: [`read_columnar`] over the
/// slice, so both entry points share one decoder and one set of checks.
///
/// # Errors
///
/// [`IoError::Format`] for anything [`read_columnar`] rejects (a slice
/// read never fails with [`IoError::Io`]).
pub fn decode_columnar(bytes: &[u8]) -> Result<TweetDataset, IoError> {
    read_columnar(bytes)
}

/// Bytes per read while decoding the sections: a multiple of every
/// column's element size, and the only memory a load holds beyond the
/// columns themselves.
const CHUNK_BYTES: usize = 1 << 20;

fn format_error(message: String) -> IoError {
    IoError::Format {
        path: String::new(),
        message,
    }
}

/// The section body of one `TWC0` stream: the reader, the reused chunk
/// buffer, and the byte position against the header's declared length.
struct Sections<R> {
    r: R,
    buf: Vec<u8>,
    at: u64,
    expected: u64,
}

impl<R: Read> Sections<R> {
    /// Decodes the next `count` fixed-width values into a column, one
    /// full chunk at a time, handing each decoded chunk to `check`. A
    /// chunk is decoded only once every byte of it has arrived, so a
    /// short body allocates nothing for its tail.
    fn column<T, const N: usize>(
        &mut self,
        count: u64,
        decode: impl Fn([u8; N]) -> T,
        mut check: impl FnMut(&[T]),
    ) -> Result<Vec<T>, IoError> {
        let mut out = Vec::new();
        // count ≤ MAX_RECORDS + 1 and N ≤ 8, so this cannot overflow.
        let mut left = count * N as u64;
        while left > 0 {
            let want = left.min(self.buf.len() as u64) as usize;
            let chunk = &mut self.buf[..want];
            let got = fill(&mut self.r, chunk)?;
            self.at += got as u64;
            if got < want {
                return Err(format_error(format!(
                    "section layout: {} bytes, header declares {}",
                    self.at, self.expected
                )));
            }
            let start = out.len();
            out.extend(chunk.chunks_exact(N).map(|c| decode(le(c))));
            check(&out[start..]);
            left -= want as u64;
        }
        Ok(out)
    }

    /// Checks that the stream ends exactly where the header says.
    fn end(mut self) -> Result<(), IoError> {
        if fill(&mut self.r, &mut self.buf[..1])? == 0 {
            return Ok(());
        }
        Err(format_error(format!(
            "section layout: more than the {} bytes the header declares",
            self.expected
        )))
    }
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// read; only a short return tells the caller the stream ended.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, IoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(k) => filled += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

// Callers pass exactly `N` bytes (`chunks_exact` chunks or fixed header
// ranges), so the copy never sees a length mismatch.
fn le<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(chunk);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tweet::Tweet;
    use tweetmob_geo::Point;

    fn t(user: u32, secs: i64, lat: f64, lon: f64) -> Tweet {
        Tweet::new(
            UserId(user),
            Timestamp::from_secs(secs),
            Point::new_unchecked(lat, lon),
        )
    }

    fn sample() -> TweetDataset {
        TweetDataset::from_tweets(vec![
            t(1, 100, -33.8688, 151.2093),
            t(2, -50, -37.8136, 144.9631),
            t(1, 200, -12.4634, 130.8456),
            t(7, 0, -31.9523, 115.8613),
        ])
    }

    fn encode(ds: &TweetDataset) -> Vec<u8> {
        let mut buf = Vec::new();
        write_columnar(ds, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let ds = sample();
        let buf = encode(&ds);
        assert_eq!(buf.len(), HEADER_BYTES + 4 * 3 + 4 * 4 + 3 * 8 * 4);
        let back = read_columnar(&buf[..]).unwrap();
        assert_eq!(back.unique_users(), ds.unique_users());
        assert_eq!(back.user_starts(), ds.user_starts());
        assert_eq!(back.times(), ds.times());
        for i in 0..ds.n_tweets() {
            assert_eq!(back.lats()[i].to_bits(), ds.lats()[i].to_bits());
            assert_eq!(back.lons()[i].to_bits(), ds.lons()[i].to_bits());
        }
        assert_eq!(back.user_starts(), ds.user_starts());
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = TweetDataset::from_tweets(Vec::new());
        let buf = encode(&ds);
        assert_eq!(buf.len(), HEADER_BYTES + 4); // just the [0] offset
        let back = read_columnar(&buf[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn reencoding_a_decoded_file_is_byte_identical() {
        let buf = encode(&sample());
        let back = read_columnar(&buf[..]).unwrap();
        assert_eq!(encode(&back), buf);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode(&sample());
        buf[0] = b'X';
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => assert!(message.contains("magic")),
            other => panic!("expected magic error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = encode(&sample());
        buf[4] = 99;
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => assert!(message.contains("version")),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected_before_decode() {
        let buf = encode(&sample());
        for cut in [buf.len() - 1, buf.len() - 9, HEADER_BYTES, 10, 0] {
            match decode_columnar(&buf[..cut]) {
                Err(IoError::Format { message, .. }) => assert!(
                    message.contains("truncated") || message.contains("layout"),
                    "cut {cut}: {message}"
                ),
                other => panic!("cut {cut}: expected Format error, got {other:?}"),
            }
        }
        // Trailing garbage is equally a layout error, not silently ignored.
        let mut padded = buf;
        padded.push(0);
        assert!(matches!(
            decode_columnar(&padded),
            Err(IoError::Format { .. })
        ));
    }

    #[test]
    fn implausible_count_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => assert!(message.contains("implausible")),
            other => panic!("expected count guard, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_user_ids_rejected() {
        let ds = sample();
        let mut buf = encode(&ds);
        // Swap the first two unique user ids in place (section starts at 24).
        let (a, b) = (HEADER_BYTES, HEADER_BYTES + 4);
        for i in 0..4 {
            buf.swap(a + i, b + i);
        }
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => {
                assert!(message.contains("unsorted"), "{message}");
            }
            other => panic!("expected unsorted rejection, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_times_rejected() {
        let ds = sample();
        let mut buf = encode(&ds);
        // User 1 owns rows 0..2; make its first timestamp larger than its
        // second. Times section follows users + starts.
        let times_at = HEADER_BYTES + 4 * ds.n_users() + 4 * (ds.n_users() + 1);
        buf[times_at..times_at + 8].copy_from_slice(&9_999i64.to_le_bytes());
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => {
                assert!(message.contains("timestamps"), "{message}");
            }
            other => panic!("expected time-order rejection, got {other:?}"),
        }
    }

    #[test]
    fn times_outside_years_1_to_9999_rejected() {
        // Row 3 is user 7's only tweet, so a bad time there breaks no
        // order; the time fault outranks the latitude fault in row 1.
        let ds = sample();
        let times_at = HEADER_BYTES + 4 * ds.n_users() + 4 * (ds.n_users() + 1);
        let lats_at = times_at + 8 * ds.n_tweets();
        for secs in [i64::MIN, Timestamp::LAST_LOADABLE.as_secs() + 1] {
            let mut buf = encode(&ds);
            buf[times_at + 24..times_at + 32].copy_from_slice(&secs.to_le_bytes());
            buf[lats_at + 8..lats_at + 16].copy_from_slice(&200.0f64.to_le_bytes());
            match decode_columnar(&buf) {
                Err(IoError::Format { message, .. }) => {
                    assert_eq!(
                        message,
                        format!("row 3: time {secs} s is outside years 1–9999")
                    );
                }
                other => panic!("expected a time-range rejection, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_range_latitude_rejected() {
        let ds = sample();
        let mut buf = encode(&ds);
        let lats_at = HEADER_BYTES + 4 * ds.n_users() + 4 * (ds.n_users() + 1) + 8 * ds.n_tweets();
        buf[lats_at..lats_at + 8].copy_from_slice(&200.0f64.to_le_bytes());
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => {
                assert!(message.contains("latitude"), "{message}");
            }
            other => panic!("expected latitude rejection, got {other:?}"),
        }
    }

    #[test]
    fn error_display_carries_the_attached_path() {
        let err = decode_columnar(b"nope").unwrap_err().with_path("x.twc");
        assert!(err.to_string().contains("x.twc"));
    }

    /// A corpus of up to 120 random tweets over 500 users.
    fn random_corpus(seed: u64) -> TweetDataset {
        let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
        let tweets: Vec<Tweet> = (0..rng.next_below(120))
            .map(|_| {
                t(
                    rng.next_below(500) as u32,
                    rng.next_below(2_001_000_000) as i64 - 1_000_000,
                    rng.range_f64(-89.9, 89.9),
                    rng.range_f64(-179.9, 179.9),
                )
            })
            .collect();
        TweetDataset::from_tweets(tweets)
    }

    #[test]
    fn columnar_roundtrip_any_tweets() {
        for seed in 0..48 {
            let ds = random_corpus(seed);
            let back = read_columnar(&encode(&ds)[..]).unwrap();
            assert_eq!(ds.unique_users(), back.unique_users(), "seed {seed}");
            assert_eq!(ds.user_starts(), back.user_starts(), "seed {seed}");
            assert_eq!(ds.times(), back.times(), "seed {seed}");
            for i in 0..ds.n_tweets() {
                assert_eq!(
                    ds.lats()[i].to_bits(),
                    back.lats()[i].to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    ds.lons()[i].to_bits(),
                    back.lons()[i].to_bits(),
                    "seed {seed}"
                );
            }
            // And the re-encode is byte-identical — no information is
            // lost or renormalised anywhere in the cycle.
            assert_eq!(encode(&back), encode(&ds), "seed {seed}");
        }
    }

    /// A reader that hands out 1, 2, …, 7, 1, 2, … bytes per call, so
    /// every chunk and header read is split at awkward offsets.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.step = self.step % 7 + 1;
            let k = self.step.min(buf.len()).min(self.bytes.len());
            buf[..k].copy_from_slice(&self.bytes[..k]);
            self.bytes = &self.bytes[k..];
            Ok(k)
        }
    }

    fn dribble(bytes: &[u8]) -> Dribble<'_> {
        Dribble { bytes, step: 0 }
    }

    #[test]
    fn dribbled_reads_decode_like_the_slice() {
        for seed in 0..48 {
            let buf = encode(&random_corpus(seed));
            let streamed = read_columnar(dribble(&buf)).unwrap();
            let sliced = decode_columnar(&buf).unwrap();
            // The encoding is the columns' exact bits, so equal bytes
            // mean bit-identical datasets.
            assert_eq!(encode(&streamed), encode(&sliced), "seed {seed}");
            assert_eq!(encode(&streamed), buf, "seed {seed}");
        }
    }

    #[test]
    fn every_strict_prefix_is_a_format_error() {
        let buf = encode(&sample());
        for cut in 0..buf.len() {
            match read_columnar(dribble(&buf[..cut])) {
                Err(IoError::Format { message, .. }) => assert!(
                    message.contains("truncated") || message.contains("layout"),
                    "cut {cut}: {message}"
                ),
                other => panic!("cut {cut}: expected Format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_trailing_byte_is_a_format_error() {
        let mut padded = encode(&sample());
        padded.push(0);
        match read_columnar(dribble(&padded)) {
            Err(IoError::Format { message, .. }) => {
                assert!(message.contains("layout"), "{message}");
            }
            other => panic!("expected layout error, got {other:?}"),
        }
    }

    #[test]
    fn a_header_overstating_its_body_fails_without_allocating_it() {
        // The largest plausible header over a 100-byte body: the load
        // must stop at the short read, not reserve 48 GB of columns.
        for users in [1, MAX_RECORDS] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&MAX_RECORDS.to_le_bytes());
            buf.extend_from_slice(&users.to_le_bytes());
            buf.extend_from_slice(&[0; 100]);
            match read_columnar(dribble(&buf)) {
                Err(IoError::Format { message, .. }) => {
                    assert!(message.contains("layout"), "{users} users: {message}");
                }
                other => panic!("{users} users: expected layout error, got {other:?}"),
            }
        }
    }

    /// Rows in one chunk of an 8-byte column.
    const ROWS_PER_CHUNK: usize = CHUNK_BYTES / 8;

    /// The encoding of `ROWS_PER_CHUNK + 4,000` rows, so each 8-byte
    /// column spans two chunks: user 10 owns rows `0..split` and users
    /// 11, 12, … own 100 rows each after it. Times rise by one second per
    /// row.
    fn two_chunk_corpus(split: usize) -> (Vec<u8>, usize, usize) {
        let rows = ROWS_PER_CHUNK + 4_000;
        let mut offsets: Vec<u32> = vec![0];
        offsets.extend((split..rows).step_by(100).map(|r| r as u32));
        offsets.push(rows as u32);
        let users: Vec<UserId> = (10..).take(offsets.len() - 1).map(UserId).collect();
        let ds = TweetDataset::from_sorted_columns(
            users,
            offsets,
            (0..rows as i64).map(Timestamp::from_secs).collect(),
            vec![-33.0; rows],
            vec![151.0; rows],
        )
        .unwrap();
        let times_at = HEADER_BYTES + 4 * ds.n_users() + 4 * (ds.n_users() + 1);
        (encode(&ds), times_at, rows)
    }

    #[test]
    fn faults_across_the_chunk_boundary() {
        // A decrease inside user 10 whose two rows straddle the boundary
        // between the first and second chunk of the times section.
        let (mut buf, times_at, _) = two_chunk_corpus(ROWS_PER_CHUNK + 50);
        let at = times_at + 8 * ROWS_PER_CHUNK;
        buf[at..at + 8].copy_from_slice(&0i64.to_le_bytes());
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => assert_eq!(
                message,
                "unsorted input: timestamps of user 10 are not non-decreasing"
            ),
            other => panic!("expected time-order rejection, got {other:?}"),
        }
        // The same decrease where user 11 starts is a new user's first
        // tweet, not a fault.
        let (mut buf, times_at, rows) = two_chunk_corpus(ROWS_PER_CHUNK);
        let at = times_at + 8 * ROWS_PER_CHUNK;
        buf[at..at + 8].copy_from_slice(&0i64.to_le_bytes());
        let ds = decode_columnar(&buf).unwrap();
        assert_eq!(ds.n_tweets(), rows);
        assert_eq!(encode(&ds), buf);
        // An out-of-range longitude on the last row, in the last chunk.
        let (mut buf, _, rows) = two_chunk_corpus(ROWS_PER_CHUNK + 50);
        let at = buf.len() - 8;
        buf[at..].copy_from_slice(&180.5f64.to_le_bytes());
        match decode_columnar(&buf) {
            Err(IoError::Format { message, .. }) => {
                assert_eq!(
                    message,
                    format!("row {}: invalid longitude 180.5", rows - 1)
                );
            }
            other => panic!("expected longitude rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_layout_fault_outranks_an_invariant_fault() {
        // Unsorted user ids, and a body one byte short or long: the
        // layout error is reported, not the invariant the bytes break.
        let mut buf = encode(&sample());
        buf[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(decode_columnar(&buf), Err(IoError::Format { message, .. }) if message.contains("unsorted"))
        );
        for body in [&buf[..buf.len() - 1], &[&buf[..], &[0]].concat()[..]] {
            match read_columnar(dribble(body)) {
                Err(IoError::Format { message, .. }) => {
                    assert!(message.starts_with("section layout"), "{message}");
                }
                other => panic!("expected layout error, got {other:?}"),
            }
        }
    }
}
