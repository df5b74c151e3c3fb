//! Columnar binary dataset format (`.twc`, magic `TWC0`).
//!
//! `TWC0` serialises the in-memory [`TweetDataset`] layout *directly*:
//! four contiguous value columns plus the CSR user index, already sorted
//! by `(user, time)`.
//! Loading is one bulk read, a fixed-size header validation, and a
//! straight little-endian decode of each column — no per-record branch,
//! no `Point` construction, no re-sort. At the paper's 6.3 M tweets
//! that turns load from the pipeline's slowest stage into a memory-copy.
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
//! The file length is fully determined by the header, so truncation and
//! padding are both detected before any column is decoded. The sort
//! invariant is *verified* on load (cheap columnwise scans via
//! [`TweetDataset::from_sorted_columns`]), never re-established — an
//! unsorted file is a format error, not a dataset to fix up.

use crate::dataset::TweetDataset;
use crate::io::IoError;
use crate::time::Timestamp;
use crate::tweet::UserId;
use std::io::{Read, Write};

/// File magic.
pub const MAGIC: [u8; 4] = *b"TWC0";
/// Current format version.
const VERSION: u32 = 1;
/// Fixed header bytes before the column sections.
const HEADER_BYTES: usize = 24;

/// Upper bound on the declared tweet count — a plausibility guard that
/// rejects corrupt headers before any allocation.
const MAX_RECORDS: u64 = 2_000_000_000;

/// Writes the dataset in columnar form. Column order matches the
/// in-memory layout, so the writer is five `write_all` streams with no
/// per-record assembly.
///
/// # Errors
///
/// Propagates write failures.
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

/// Reads a columnar dataset written by [`write_columnar`]: one bulk read
/// to the end of the stream, then [`decode_columnar`].
///
/// # Errors
///
/// * [`IoError::Io`] — underlying read failure.
/// * [`IoError::Format`] — anything [`decode_columnar`] rejects.
pub fn read_columnar<R: Read>(mut r: R) -> Result<TweetDataset, IoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_columnar(&bytes)
}

/// Decodes a complete in-memory `TWC0` image. This is the whole load
/// path: header validation, an exact-length check (the header fully
/// determines the file size), bulk little-endian column decodes, and
/// the sort-invariant verification in
/// [`TweetDataset::from_sorted_columns`].
///
/// # Errors
///
/// [`IoError::Format`] for bad magic, unsupported version, implausible
/// counts, a length that disagrees with the header, or columns that
/// violate the sort/range invariants. No path is attached; callers that
/// know the file name add it with [`IoError::with_path`].
pub fn decode_columnar(bytes: &[u8]) -> Result<TweetDataset, IoError> {
    let _span = tweetmob_obs::span!("read_columnar");
    let fail = |message: String| IoError::Format {
        path: String::new(),
        message,
    };
    if bytes.len() < HEADER_BYTES {
        return Err(fail(format!(
            "truncated header: {} bytes, need {HEADER_BYTES}",
            bytes.len()
        )));
    }
    let magic = &bytes[0..4];
    if magic != MAGIC {
        return Err(fail(format!("bad magic {magic:?}, expected {MAGIC:?}")));
    }
    let version = u32::from_le_bytes(le(&bytes[4..8]));
    if version != VERSION {
        return Err(fail(format!("unsupported version {version}")));
    }
    let n = u64::from_le_bytes(le(&bytes[8..16]));
    let u = u64::from_le_bytes(le(&bytes[16..24]));
    if n > MAX_RECORDS || u > n.max(1) {
        return Err(fail(format!("implausible counts: {n} tweets, {u} users")));
    }
    let (n, u) = (n as usize, u as usize);
    let expected = HEADER_BYTES + 4 * u + 4 * (u + 1) + 3 * 8 * n;
    if bytes.len() != expected {
        return Err(fail(format!(
            "section layout: {} bytes, header declares {expected}",
            bytes.len()
        )));
    }
    let mut at = HEADER_BYTES;
    let mut take = |len: usize| {
        let s = &bytes[at..at + len];
        at += len;
        s
    };
    let unique_users: Vec<UserId> = decode_u32s(take(4 * u)).map(UserId).collect();
    let user_starts: Vec<u32> = decode_u32s(take(4 * (u + 1))).collect();
    let times: Vec<Timestamp> = decode_i64s(take(8 * n)).map(Timestamp::from_secs).collect();
    let lats: Vec<f64> = decode_f64s(take(8 * n)).collect();
    let lons: Vec<f64> = decode_f64s(take(8 * n)).collect();
    let ds = TweetDataset::from_sorted_columns(unique_users, user_starts, times, lats, lons)
        .map_err(fail)?;
    tweetmob_obs::counter!("data/tweets_read").add(ds.n_tweets() as u64);
    Ok(ds)
}

// Callers pass exactly `N` bytes (`chunks_exact` chunks or fixed header
// ranges), so the copy never sees a length mismatch.
fn le<const N: usize>(chunk: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(chunk);
    out
}

fn decode_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(le(c)))
}

fn decode_i64s(bytes: &[u8]) -> impl Iterator<Item = i64> + '_ {
    bytes.chunks_exact(8).map(|c| i64::from_le_bytes(le(c)))
}

fn decode_f64s(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(le(c)))
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

    #[test]
    fn columnar_roundtrip_any_tweets() {
        for seed in 0..48 {
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
            let ds = TweetDataset::from_tweets(tweets);
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
}
