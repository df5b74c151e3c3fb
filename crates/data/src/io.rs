//! Dataset serialisation: JSON Lines.
//!
//! JSONL is the text interchange format: one tweet object per line, the
//! shape the Twitter streaming API and real tweet-collection pipelines
//! emit. It streams through `BufRead`/`Write` so multi-gigabyte datasets
//! never need to fit into one allocation beyond the decoded rows. The
//! binary `TWC0` format lives in [`crate::columnar`].

use crate::dataset::TweetDataset;
use crate::time::Timestamp;
use crate::tweet::{Tweet, UserId};
use std::fmt;
use std::io::{self, BufRead, Write};
use tweetmob_geo::Point;
use tweetmob_obs::Json;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed JSONL line.
    Json {
        /// 1-based line number.
        line: usize,
        /// Decoder message.
        message: String,
    },
    /// A row decoded fine but held an invalid coordinate.
    BadCoordinate {
        /// 1-based line number.
        line: usize,
        /// Validation failure.
        source: tweetmob_geo::GeoError,
    },
    /// A malformed or unsupported binary container: bad magic, unknown
    /// schema version, corrupt section layout. Shared by the `TWC0`
    /// dataset format and the model-artifact bundle.
    Format {
        /// File the container came from; empty when the source was an
        /// anonymous stream.
        path: String,
        /// What was wrong with the encoding.
        message: String,
    },
}

impl IoError {
    /// Attaches a file path to a [`IoError::Format`] error that was
    /// produced from an anonymous stream; other variants pass through
    /// unchanged.
    #[must_use]
    pub fn with_path(self, path: &str) -> Self {
        match self {
            IoError::Format { message, .. } => IoError::Format {
                path: path.to_string(),
                message,
            },
            other => other,
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o failure: {e}"),
            IoError::Json { line, message } => write!(f, "line {line}: bad JSON: {message}"),
            IoError::BadCoordinate { line, source } => {
                write!(f, "line {line}: invalid coordinate: {source}")
            }
            IoError::Format { path, message } if path.is_empty() => {
                write!(f, "bad container format: {message}")
            }
            IoError::Format { path, message } => {
                write!(f, "{path}: bad container format: {message}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::BadCoordinate { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes the dataset as JSON Lines (one tweet per line, `(user, time)`
/// order): `{"user":…,"time":…,"location":{"lat":…,"lon":…}}`, with
/// coordinates printed so they parse back to the same bits.
///
/// # Errors
///
/// Propagates write failures, including the final flush's.
pub fn write_jsonl<W: Write>(ds: &TweetDataset, mut w: W) -> Result<(), IoError> {
    for t in ds.iter_tweets() {
        writeln!(
            w,
            "{{\"user\":{},\"time\":{},\"location\":{{\"lat\":{:?},\"lon\":{:?}}}}}",
            t.user.0,
            t.time.as_secs(),
            t.location.lat,
            t.location.lon
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a JSON Lines stream produced by [`write_jsonl`] (or any source
/// emitting `{"user":…,"time":…,"location":{"lat":…,"lon":…}}` objects;
/// other members are ignored). Blank lines are skipped. Coordinates are
/// validated.
///
/// # Errors
///
/// The first malformed line (bad UTF-8, bad JSON, a missing or mistyped
/// field, an invalid coordinate) aborts the read with its line number.
pub fn read_jsonl<R: BufRead>(mut r: R) -> Result<TweetDataset, IoError> {
    let _span = tweetmob_obs::span!("read_jsonl");
    let mut tweets = Vec::new();
    let mut buf = Vec::new();
    let mut line = 0;
    loop {
        buf.clear();
        if r.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line += 1;
        let json_err = |message: String| IoError::Json { line, message };
        let text = std::str::from_utf8(&buf).map_err(|e| json_err(e.to_string()))?;
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        let doc = Json::parse(text).map_err(|e| json_err(e.to_string()))?;
        let (user, time, lat, lon) = tweet_fields(&doc).map_err(json_err)?;
        let location =
            Point::new(lat, lon).map_err(|source| IoError::BadCoordinate { line, source })?;
        tweets.push(Tweet::new(
            UserId(user),
            Timestamp::from_secs(time),
            location,
        ));
    }
    tweetmob_obs::counter!("data/tweets_read").add(tweets.len() as u64);
    Ok(TweetDataset::from_tweets(tweets))
}

/// The `user`, `time`, `location.lat` and `location.lon` members of one
/// JSONL record.
fn tweet_fields(doc: &Json) -> Result<(u32, i64, f64, f64), String> {
    fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, String> {
        v.get(name).ok_or_else(|| format!("missing field `{name}`"))
    }
    let user = field(doc, "user")?
        .as_u64()
        .and_then(|u| u32::try_from(u).ok())
        .ok_or("field `user` must be an integer in 0..=4294967295")?;
    let &Json::Int(time) = field(doc, "time")? else {
        return Err("field `time` must be an integer (epoch seconds)".into());
    };
    let location = field(doc, "location")?;
    let coord = |name: &str| {
        field(location, name)?
            .as_f64()
            .ok_or_else(|| format!("field `location.{name}` must be a number"))
    };
    Ok((user, time, coord("lat")?, coord("lon")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TweetDataset {
        TweetDataset::from_tweets(vec![
            Tweet::new(
                UserId(1),
                Timestamp::from_secs(100),
                Point::new_unchecked(-33.9, 151.2),
            ),
            Tweet::new(
                UserId(2),
                Timestamp::from_secs(50),
                Point::new_unchecked(-37.81, 144.96),
            ),
            Tweet::new(
                UserId(1),
                Timestamp::from_secs(200),
                Point::new_unchecked(-33.8, 151.1),
            ),
        ])
    }

    fn datasets_equal(a: &TweetDataset, b: &TweetDataset) -> bool {
        a.n_tweets() == b.n_tweets() && a.iter_tweets().zip(b.iter_tweets()).all(|(x, y)| x == y)
    }

    #[test]
    fn jsonl_roundtrip() {
        let ds = sample();
        let mut buf = Vec::new();
        write_jsonl(&ds, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 3);
        let back = read_jsonl(&buf[..]).unwrap();
        assert!(datasets_equal(&ds, &back));
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let text = "\n{\"user\":1,\"time\":5,\"location\":{\"lat\":-33.0,\"lon\":151.0}}\n\n";
        let ds = read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(ds.n_tweets(), 1);
    }

    #[test]
    fn jsonl_reports_bad_line_number() {
        let text = "{\"user\":1,\"time\":5,\"location\":{\"lat\":-33.0,\"lon\":151.0}}\nnot json\n";
        match read_jsonl(text.as_bytes()) {
            Err(IoError::Json { line: 2, .. }) => {}
            other => panic!("expected Json error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_rejects_invalid_coordinates() {
        let text = "{\"user\":1,\"time\":5,\"location\":{\"lat\":-133.0,\"lon\":151.0}}\n";
        match read_jsonl(text.as_bytes()) {
            Err(IoError::BadCoordinate { line: 1, .. }) => {}
            other => panic!("expected BadCoordinate, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Json {
            line: 7,
            message: "missing field `location`".into(),
        };
        let text = e.to_string();
        assert!(text.contains("line 7"));
        assert!(text.contains("location"));
    }

    #[test]
    fn jsonl_line_shape() {
        let ds = TweetDataset::from_tweets(vec![Tweet::new(
            UserId(9),
            Timestamp::from_secs(1_377_993_700),
            Point::new_unchecked(-12.46, 131.0),
        )]);
        let mut buf = Vec::new();
        write_jsonl(&ds, &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"user\":9,\"time\":1377993700,\"location\":{\"lat\":-12.46,\"lon\":131.0}}\n"
        );
    }

    #[test]
    fn jsonl_rejects_mistyped_fields() {
        for line in [
            r#"{"user":1.5,"time":5,"location":{"lat":-33.0,"lon":151.0}}"#,
            r#"{"user":-1,"time":5,"location":{"lat":-33.0,"lon":151.0}}"#,
            r#"{"user":1,"time":5.0,"location":{"lat":-33.0,"lon":151.0}}"#,
            r#"{"user":1,"time":5,"location":{"lat":"x","lon":151.0}}"#,
            r#"{"user":1,"time":5}"#,
            r#"[1,2]"#,
        ] {
            match read_jsonl(line.as_bytes()) {
                Err(IoError::Json { line: 1, .. }) => {}
                other => panic!("{line}: expected Json error on line 1, got {other:?}"),
            }
        }
    }

    mod properties {
        use super::super::*;
        use tweetmob_stats::rng::SplitMix64;

        fn random_dataset(rng: &mut SplitMix64, max_len: usize) -> TweetDataset {
            let n = rng.next_below(max_len);
            let tweets = (0..n)
                .map(|_| {
                    let user = UserId(rng.next_below(1_000) as u32);
                    let secs = rng.next_below(2_001_000_000) as i64 - 1_000_000;
                    let p = Point::new_unchecked(
                        rng.range_f64(-89.9, 89.9),
                        rng.range_f64(-179.9, 179.9),
                    );
                    Tweet::new(user, Timestamp::from_secs(secs), p)
                })
                .collect();
            TweetDataset::from_tweets(tweets)
        }

        fn assert_bit_identical(seed: u64, a: &TweetDataset, b: &TweetDataset) {
            assert_eq!(a.n_tweets(), b.n_tweets(), "seed {seed}");
            for (x, y) in a.iter_tweets().zip(b.iter_tweets()) {
                assert_eq!((x.user, x.time), (y.user, y.time), "seed {seed}");
                assert_eq!(
                    x.location.lat.to_bits(),
                    y.location.lat.to_bits(),
                    "seed {seed}"
                );
                assert_eq!(
                    x.location.lon.to_bits(),
                    y.location.lon.to_bits(),
                    "seed {seed}"
                );
            }
        }

        #[test]
        fn jsonl_roundtrip_any_tweets() {
            for seed in 0..48 {
                let ds = random_dataset(&mut SplitMix64::new(seed), 80);
                let mut buf = Vec::new();
                write_jsonl(&ds, &mut buf).unwrap();
                assert_bit_identical(seed, &ds, &read_jsonl(&buf[..]).unwrap());
            }
        }

        /// Every outcome on damaged input is a dataset or an error naming
        /// a line of the input; nothing panics.
        fn check_damaged(seed: u64, bytes: &[u8]) {
            let lines = bytes.split(|&b| b == b'\n').count();
            match read_jsonl(bytes) {
                Ok(_) => {}
                Err(IoError::Json { line, .. } | IoError::BadCoordinate { line, .. }) => {
                    assert!(
                        (1..=lines).contains(&line),
                        "seed {seed}: line {line} of {lines}"
                    );
                }
                Err(e) => panic!("seed {seed}: untyped error {e:?}"),
            }
        }

        #[test]
        fn jsonl_damaged_input_gives_line_numbered_errors() {
            let mut valid = Vec::new();
            write_jsonl(&random_dataset(&mut SplitMix64::new(99), 6), &mut valid).unwrap();
            for cut in 0..valid.len() {
                check_damaged(u64::MAX, &valid[..cut]);
            }
            for seed in 0..512 {
                let mut rng = SplitMix64::new(seed);
                let mut bytes = valid.clone();
                for _ in 0..1 + rng.next_below(3) {
                    let at = rng.next_below(bytes.len());
                    bytes[at] = rng.next_below(256) as u8;
                }
                check_damaged(seed, &bytes);
            }
        }
    }
}
