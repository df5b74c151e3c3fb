//! Dataset serialisation: JSON Lines.
//!
//! JSONL is the text interchange format: one tweet object per line, the
//! shape the Twitter streaming API and real tweet-collection pipelines
//! emit. It streams through `BufRead`/`Write` so multi-gigabyte datasets
//! never need to fit into one allocation beyond the decoded rows. The
//! binary `TWC0` format lives in [`crate::columnar`].
//!
//! [`read_jsonl`] accepts any strict JSON object per line that carries
//! `user`, `time` and `location.{lat,lon}`: members in any order, any
//! whitespace, escaped keys, and extra members of any type (a tweet's
//! text, say). It builds no JSON tree. Each line is walked once by
//! [`tweetmob_obs::json::JsonReader`], the reader behind
//! [`Json::parse`], which keeps the four numbers and checks and skips
//! everything else without allocating. It accepts and rejects exactly the
//! lines that parsing to a [`Json`] and looking the members up would,
//! with the same error messages.

use crate::dataset::TweetDataset;
use crate::time::Timestamp;
use crate::tweet::{Tweet, UserId};
use std::fmt;
use std::io::{self, BufRead, Write};
use tweetmob_geo::Point;
use tweetmob_obs::json::JsonReader;
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
    pub(crate) fn with_path(self, path: &str) -> Self {
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

/// Reads a JSON Lines stream: one tweet object per line, as
/// [`write_jsonl`] writes it or as real tweet collections deliver it.
///
/// Each line is walked once by [`tweetmob_obs::json::JsonReader`], the
/// reader behind [`tweetmob_obs::Json::parse`], and no JSON tree is
/// built. A line holds one object with the members `user` (an integer
/// in `0..=4294967295`), `time` (an integer, epoch seconds) and
/// `location` (an object with numbers `lat` and `lon`). Members may come
/// in any order, with any whitespace and with escaped keys. Other
/// members, of any JSON type, are checked and skipped; a repeated member
/// keeps its last value. Blank lines are skipped. Coordinates are
/// validated.
///
/// # Errors
///
/// The first malformed line aborts the read with its line number: bad
/// UTF-8 or bad JSON anywhere on the line first, then a missing or
/// mistyped field (`user`, `time`, `location`, `lat`, `lon`, in that
/// order), then an invalid coordinate.
pub fn read_jsonl<R: BufRead>(mut r: R) -> Result<TweetDataset, IoError> {
    read_records(&mut r, tweet_fields)
}

/// Reads the JSONL stream line by line, turning each non-blank,
/// whitespace-trimmed line into a tweet through `decode`.
fn read_records<R: BufRead>(
    mut r: R,
    decode: impl Fn(&str) -> Result<(u32, i64, f64, f64), String>,
) -> Result<TweetDataset, IoError> {
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
        let (user, time, lat, lon) = decode(text).map_err(json_err)?;
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
/// JSONL record, read in one pass. Each keeps the last value met, and a
/// repeated `location` replaces the whole object. The checks that can
/// fail run once the record has been read, in member order, so a syntax
/// error anywhere on the line wins over a field error.
fn tweet_fields(text: &str) -> Result<(u32, i64, f64, f64), String> {
    // `None`: the member is missing. `Some(None)`: it is there but of the
    // wrong type or out of range.
    let (mut user, mut time, mut location) = (None, None, None);
    let mut r = JsonReader::new(text);
    r.object(&["user", "time", "location"], |r, member| {
        match member {
            0 => {
                let v = r.scalar()?.and_then(|v| v.as_u64());
                user = Some(v.and_then(|u| u32::try_from(u).ok()));
            }
            1 => {
                time = Some(match r.scalar()? {
                    Some(Json::Int(t)) => Some(t),
                    _ => None,
                });
            }
            _ => {
                let (mut lat, mut lon) = (None, None);
                r.object(&["lat", "lon"], |r, i| {
                    let coord = if i == 0 { &mut lat } else { &mut lon };
                    *coord = Some(r.scalar()?.and_then(|v| v.as_f64()));
                    Ok(())
                })?;
                location = Some((lat, lon));
            }
        }
        Ok(())
    })
    .and_then(|_| r.finish())
    .map_err(|e| e.to_string())?;

    fn field<T>(value: Option<T>, name: &str) -> Result<T, String> {
        value.ok_or_else(|| format!("missing field `{name}`"))
    }
    let user = field(user, "user")?.ok_or("field `user` must be an integer in 0..=4294967295")?;
    let time = field(time, "time")?.ok_or("field `time` must be an integer (epoch seconds)")?;
    let (lat, lon) = field(location, "location")?;
    let coord = |value: Option<Option<f64>>, name: &str| {
        field(value, name)?.ok_or_else(|| format!("field `location.{name}` must be a number"))
    };
    Ok((user, time, coord(lat, "lat")?, coord(lon, "lon")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference decode: the whole line as a [`Json`] tree, then its
    /// members looked up.
    fn dom_fields(text: &str) -> Result<(u32, i64, f64, f64), String> {
        fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, String> {
            v.get(name).ok_or_else(|| format!("missing field `{name}`"))
        }
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let user = field(&doc, "user")?
            .as_u64()
            .and_then(|u| u32::try_from(u).ok())
            .ok_or("field `user` must be an integer in 0..=4294967295")?;
        let &Json::Int(time) = field(&doc, "time")? else {
            return Err("field `time` must be an integer (epoch seconds)".into());
        };
        let location = field(&doc, "location")?;
        let coord = |name: &str| {
            field(location, name)?
                .as_f64()
                .ok_or_else(|| format!("field `location.{name}` must be a number"))
        };
        Ok((user, time, coord("lat")?, coord("lon")?))
    }

    /// A read's outcome in comparable form: the columns bit for bit, or
    /// the error's variant, line and message.
    fn outcome(read: &Result<TweetDataset, IoError>) -> Result<Vec<(u32, i64, u64, u64)>, String> {
        match read {
            Ok(ds) => Ok(ds
                .iter_tweets()
                .map(|t| {
                    let p = t.location;
                    (t.user.0, t.time.as_secs(), p.lat.to_bits(), p.lon.to_bits())
                })
                .collect()),
            Err(e) => Err(format!("{e:?} / {e}")),
        }
    }

    /// Reads `bytes` with [`read_jsonl`], asserts that the reference
    /// decode reads them the same way, and returns the read.
    pub(super) fn read_checked(bytes: &[u8]) -> Result<TweetDataset, IoError> {
        let read = read_jsonl(bytes);
        let want = outcome(&read_records(bytes, dom_fields));
        assert_eq!(
            outcome(&read),
            want,
            "input {:?}",
            String::from_utf8_lossy(bytes)
        );
        read
    }

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
        let back = read_checked(&buf).unwrap();
        assert!(datasets_equal(&ds, &back));
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let text = "\n{\"user\":1,\"time\":5,\"location\":{\"lat\":-33.0,\"lon\":151.0}}\n\n";
        let ds = read_checked(text.as_bytes()).unwrap();
        assert_eq!(ds.n_tweets(), 1);
    }

    #[test]
    fn jsonl_reports_bad_line_number() {
        let text = "{\"user\":1,\"time\":5,\"location\":{\"lat\":-33.0,\"lon\":151.0}}\nnot json\n";
        match read_checked(text.as_bytes()) {
            Err(IoError::Json { line: 2, .. }) => {}
            other => panic!("expected Json error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_rejects_invalid_coordinates() {
        let text = "{\"user\":1,\"time\":5,\"location\":{\"lat\":-133.0,\"lon\":151.0}}\n";
        match read_checked(text.as_bytes()) {
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
            match read_checked(line.as_bytes()) {
                Err(IoError::Json { line: 1, .. }) => {}
                other => panic!("{line}: expected Json error on line 1, got {other:?}"),
            }
        }
    }

    /// One record from `(key, value)` members, with `ws` around every
    /// token.
    fn record(ws: &str, members: &[(&str, &str)]) -> String {
        let body: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{ws}\"{k}\"{ws}:{ws}{v}{ws}"))
            .collect();
        format!("{ws}{{{}}}{ws}", body.join(","))
    }

    #[test]
    fn every_member_order_and_whitespace_reads_like_the_reference() {
        let users = [("user", "7"), ("time", "5")];
        for ws in ["", " ", " \t\r "] {
            for loc in [
                record(ws, &[("lat", "-33.5"), ("lon", "151.25")]),
                record(ws, &[("lon", "151.25"), ("lat", "-33.5")]),
            ] {
                let all = [users[0], users[1], ("location", loc.as_str())];
                for order in [
                    [0, 1, 2],
                    [0, 2, 1],
                    [1, 0, 2],
                    [1, 2, 0],
                    [2, 0, 1],
                    [2, 1, 0],
                ] {
                    let members: Vec<_> = order.iter().map(|&i| all[i]).collect();
                    let line = record(ws, &members);
                    let ds = read_checked(line.as_bytes()).unwrap();
                    let t = ds.iter_tweets().next().unwrap();
                    assert_eq!((t.user.0, t.time.as_secs()), (7, 5), "{line}");
                    assert_eq!((t.location.lat, t.location.lon), (-33.5, 151.25), "{line}");
                }
            }
        }
    }

    #[test]
    fn edge_lines_read_like_the_reference() {
        const LOC: &str = r#"{"lat":-33.5,"lon":151.25}"#;
        let deep = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let (depth_128, depth_129) = (deep(127), deep(128));
        let unknown = [
            r#""say \"hi\" \\ \ud83d\ude00 😀""#,
            r#"[1,"a",[],{}]"#,
            r#"{"name":"x","bbox":[[1,2],[3,4]],"n":{"m":null}}"#,
            "null",
            "true",
            "-1.5e3",
        ];
        let mut lines: Vec<(String, bool)> = Vec::new();
        for value in unknown {
            for at in 0..=3 {
                let mut members = vec![("user", "7"), ("time", "5"), ("location", LOC)];
                members.insert(at, ("extra", value));
                lines.push((record("", &members), true));
            }
        }
        let with = |user: &str, time: &str, location: &str| {
            record(
                "",
                &[("user", user), ("time", time), ("location", location)],
            )
        };
        lines.extend([
            (with("-0", "5", LOC), true),
            (with("4294967295", "5", LOC), true),
            (with("4294967296", "5", LOC), false),
            (with("7", "5.0", LOC), false),
            (with("7", "5e0", LOC), false),
            (with("7", "9223372036854775808", LOC), false),
            (with("7", "5", r#"{"lat":-33,"lon":151}"#), true),
            (with("7", "5", r#"{"lat":-0,"lon":-0.0}"#), true),
            (with("7", "5", r#"{"lat":1e999,"lon":151}"#), false),
            (with("7", "5", r#"{"lat":-33.5,"lon":1e2}"#), true),
            (with("7", "5", r#"{"lat":"-33.5","lon":151}"#), false),
            (with("7", "5", "[1,2]"), false),
            (
                with("7", "5", r#"{"lat":-33.5,"lat":-34.5,"lon":151}"#),
                true,
            ),
            (
                record(
                    "",
                    &[
                        ("user", "1"),
                        ("time", "5"),
                        ("location", LOC),
                        ("user", "2"),
                    ],
                ),
                true,
            ),
            (
                record(
                    "",
                    &[
                        ("user", "1"),
                        ("time", "5"),
                        ("location", LOC),
                        ("location", r#"{"lon":3}"#),
                    ],
                ),
                false,
            ),
            (
                r#"{"us\u0065r":7,"time":5,"loc\u0061tion":{"l\u0061t":1,"lon":2}}"#.to_string(),
                true,
            ),
            (
                r#"{"user":7,"us\u0065rs":8,"time":5,"location":{"lat":1,"lon":2}}"#.to_string(),
                true,
            ),
            (
                r#"{"us\u0065rx":7,"time":5,"location":{"lat":1,"lon":2}}"#.to_string(),
                false,
            ),
            (
                r#"{"user":7,"time":5,"locationx":{"lat":1,"lon":2}}"#.to_string(),
                false,
            ),
            (r#"{"user":7,"time":5,"lat":1,"lon":2}"#.to_string(), false),
            (
                r#"{"users":7,"time":5,"location":{"lat":1,"lon":2}}"#.to_string(),
                false,
            ),
            (
                r#"{"use":7,"time":5,"location":{"lat":1,"lon":2}}"#.to_string(),
                false,
            ),
            (
                r#"{"":1,"user":7,"time":5,"location":{"lat":1,"lon":2}}"#.to_string(),
                true,
            ),
            (
                r#"{"x":{"user":8,"location":{}},"user":7,"time":5,"location":{"lat":1,"lon":2}}"#
                    .to_string(),
                true,
            ),
            (
                r#"{"user":7,"time":5,"location":{"lat":1,"lon":2},"user""#.to_string(),
                false,
            ),
            (
                r#"{"user":7,"time":5,"location":{"lat":1,"lon":2},"user"}"#.to_string(),
                false,
            ),
            (
                r#"{"user":7,"time":5,"location":{"lat":1,"lon":2},"user" :8}"#.to_string(),
                true,
            ),
            (
                record(
                    "",
                    &[
                        ("user", "7"),
                        ("x", &depth_128),
                        ("time", "5"),
                        ("location", LOC),
                    ],
                ),
                true,
            ),
            (
                record(
                    "",
                    &[
                        ("user", "7"),
                        ("x", &depth_129),
                        ("time", "5"),
                        ("location", LOC),
                    ],
                ),
                false,
            ),
            (format!("{}\r\n", with("7", "5", LOC)), true),
            (format!("\u{feff}{}", with("7", "5", LOC)), false),
            (format!("{} x", with("7", "5", LOC)), false),
            (format!("{}}}", with("7", "5", LOC)), false),
            ("[1,2]".to_string(), false),
            ("\"user\"".to_string(), false),
            (
                r#"{"user":7,"time":5,"location":{"lat":1,"lon":2},}"#.to_string(),
                false,
            ),
            (r#"{"user":7 "time":5}"#.to_string(), false),
        ]);
        for (line, ok) in &lines {
            assert_eq!(read_checked(line.as_bytes()).is_ok(), *ok, "{line}");
        }
        let mut bad_utf8 = br#"{"text":"caf"#.to_vec();
        bad_utf8.extend_from_slice(b"\xff\"");
        bad_utf8.extend_from_slice(br#","user":7,"time":5,"location":{"lat":1,"lon":2}}"#);
        assert!(read_checked(&bad_utf8).is_err());
        let accepted: String = lines
            .iter()
            .filter(|(_, ok)| *ok)
            .map(|(line, _)| format!("{line}\n"))
            .collect();
        assert!(read_checked(accepted.as_bytes()).is_ok());
    }

    mod properties {
        use super::super::*;
        use super::read_checked;
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
                assert_bit_identical(seed, &ds, &read_checked(&buf).unwrap());
            }
        }

        /// Every outcome on damaged input is the reference decode's: a
        /// dataset or an error naming a line of the input; nothing panics.
        fn check_damaged(seed: u64, bytes: &[u8]) {
            let lines = bytes.split(|&b| b == b'\n').count();
            match read_checked(bytes) {
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
