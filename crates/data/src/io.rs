//! Dataset serialisation: JSON Lines and CSV.
//!
//! JSONL is the interchange format (one tweet object per line — the shape
//! real tweet-collection pipelines emit); CSV is provided for spreadsheet
//! interop. Both stream through `BufRead`/`Write` so multi-gigabyte
//! datasets never need to fit into one allocation beyond the decoded rows.

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
    /// Malformed CSV row.
    Csv {
        /// 1-based line number (header is line 1).
        line: usize,
        /// What was wrong.
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
            IoError::Csv { line, message } => write!(f, "line {line}: bad CSV: {message}"),
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
/// Propagates write failures.
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

/// CSV header emitted by [`write_csv`].
const CSV_HEADER: &str = "user,time_secs,lat,lon";

/// Writes the dataset as CSV with header `user,time_secs,lat,lon`.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_csv<W: Write>(ds: &TweetDataset, mut w: W) -> Result<(), IoError> {
    writeln!(w, "{CSV_HEADER}")?;
    for t in ds.iter_tweets() {
        writeln!(
            w,
            "{},{},{},{}",
            t.user.0,
            t.time.as_secs(),
            t.location.lat,
            t.location.lon
        )?;
    }
    Ok(())
}

/// Reads CSV produced by [`write_csv`]. The header row is required and
/// validated; fields never contain commas so no quoting dialect is needed.
///
/// # Errors
///
/// Bad header, wrong field count, unparseable numbers, or invalid
/// coordinates — each with a line number.
pub fn read_csv<R: BufRead>(r: R) -> Result<TweetDataset, IoError> {
    let _span = tweetmob_obs::span!("read_csv");
    let mut lines = r.lines().enumerate();
    match lines.next() {
        Some((_, Ok(h))) if h.trim() == CSV_HEADER => {}
        Some((_, Ok(h))) => {
            return Err(IoError::Csv {
                line: 1,
                message: format!("expected header {CSV_HEADER:?}, found {h:?}"),
            })
        }
        Some((_, Err(e))) => return Err(e.into()),
        None => return Ok(TweetDataset::from_tweets(Vec::new())),
    }
    let mut tweets = Vec::new();
    for (i, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let mut fields = trimmed.split(',');
        let mut next_field = |name: &str| {
            fields.next().ok_or_else(|| IoError::Csv {
                line: lineno,
                message: format!("missing field {name}"),
            })
        };
        let user: u32 = parse_field(next_field("user")?, lineno, "user")?;
        let secs: i64 = parse_field(next_field("time_secs")?, lineno, "time_secs")?;
        let lat: f64 = parse_field(next_field("lat")?, lineno, "lat")?;
        let lon: f64 = parse_field(next_field("lon")?, lineno, "lon")?;
        if fields.next().is_some() {
            return Err(IoError::Csv {
                line: lineno,
                message: "too many fields".into(),
            });
        }
        let location = Point::new(lat, lon).map_err(|source| IoError::BadCoordinate {
            line: lineno,
            source,
        })?;
        tweets.push(Tweet::new(
            UserId(user),
            Timestamp::from_secs(secs),
            location,
        ));
    }
    tweetmob_obs::counter!("data/tweets_read").add(tweets.len() as u64);
    Ok(TweetDataset::from_tweets(tweets))
}

fn parse_field<T: std::str::FromStr>(s: &str, line: usize, name: &str) -> Result<T, IoError>
where
    T::Err: fmt::Display,
{
    s.trim().parse().map_err(|e: T::Err| IoError::Csv {
        line,
        message: format!("field {name}: {e}"),
    })
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
    fn csv_roundtrip() {
        let ds = sample();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("user,time_secs,lat,lon\n"));
        let back = read_csv(&buf[..]).unwrap();
        assert!(datasets_equal(&ds, &back));
    }

    #[test]
    fn csv_empty_input_gives_empty_dataset() {
        let ds = read_csv("".as_bytes()).unwrap();
        assert!(ds.is_empty());
        let ds = read_csv("user,time_secs,lat,lon\n".as_bytes()).unwrap();
        assert!(ds.is_empty());
    }

    #[test]
    fn csv_rejects_wrong_header() {
        match read_csv("a,b,c\n1,2,3\n".as_bytes()) {
            Err(IoError::Csv { line: 1, .. }) => {}
            other => panic!("expected header error, got {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_bad_field_counts_and_types() {
        let base = "user,time_secs,lat,lon\n";
        match read_csv(format!("{base}1,2,3\n").as_bytes()) {
            Err(IoError::Csv { line: 2, .. }) => {}
            other => panic!("missing field: {other:?}"),
        }
        match read_csv(format!("{base}1,2,3,4,5\n").as_bytes()) {
            Err(IoError::Csv { line: 2, .. }) => {}
            other => panic!("extra field: {other:?}"),
        }
        match read_csv(format!("{base}x,2,3.0,4.0\n").as_bytes()) {
            Err(IoError::Csv { line: 2, .. }) => {}
            other => panic!("bad number: {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_out_of_range_latitude() {
        let text = "user,time_secs,lat,lon\n1,2,-95.0,140.0\n";
        match read_csv(text.as_bytes()) {
            Err(IoError::BadCoordinate { line: 2, .. }) => {}
            other => panic!("expected BadCoordinate, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Csv {
            line: 7,
            message: "field lat: invalid float".into(),
        };
        let text = e.to_string();
        assert!(text.contains("line 7"));
        assert!(text.contains("lat"));
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

        #[test]
        fn csv_roundtrip_any_tweets() {
            for seed in 0..48 {
                let ds = random_dataset(&mut SplitMix64::new(seed), 80);
                let mut buf = Vec::new();
                write_csv(&ds, &mut buf).unwrap();
                // CSV prints f64 with full shortest-roundtrip precision.
                assert_bit_identical(seed, &ds, &read_csv(&buf[..]).unwrap());
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
