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
//! text, say). It builds no JSON tree and copies no line that lies whole
//! in the reader's buffer. A line in [`write_jsonl`]'s own layout,
//! `{"user":U,"time":T,"location":{"lat":A,"lon":B}}`, is matched piece
//! by piece against the literal pieces the writer prints, and its four
//! numbers are read by [`JsonReader::scalar_after`]. Every other line is
//! walked once by [`JsonReader`], the reader behind [`Json::parse`],
//! which keeps the four numbers and checks and skips everything else
//! without allocating. Either way a line is accepted or rejected exactly
//! as parsing it to a [`Json`] and looking the members up would, with
//! the same error messages. The counter `data/jsonl_template_misses`
//! counts the non-blank lines that took the walk.

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

/// The text [`write_jsonl`] writes around a tweet's user, time,
/// latitude and longitude; [`read_jsonl`] matches these pieces first. A
/// macro, not constants, so that each piece reaches `writeln!` as a
/// literal and is printed as part of the format string.
macro_rules! piece {
    (user) => {
        r#"{"user":"#
    };
    (time) => {
        r#","time":"#
    };
    (lat) => {
        r#","location":{"lat":"#
    };
    (lon) => {
        r#","lon":"#
    };
    (end) => {
        "}}"
    };
}

/// A record's `user`, `time` (epoch seconds), `location.lat` and
/// `location.lon`.
type Fields = (u32, i64, f64, f64);

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
            "{}{}{}{}{}{:?}{}{:?}{}",
            piece!(user),
            t.user.0,
            piece!(time),
            t.time.as_secs(),
            piece!(lat),
            t.location.lat,
            piece!(lon),
            t.location.lon,
            piece!(end)
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a JSON Lines stream: one tweet object per line, as
/// [`write_jsonl`] writes it or as real tweet collections deliver it.
///
/// A line holds one object with the members `user` (an integer in
/// `0..=4294967295`), `time` (an integer, epoch seconds) and `location`
/// (an object with numbers `lat` and `lon`). Members may come in any
/// order, with any whitespace and with escaped keys. Other members, of
/// any JSON type, are checked and skipped; a repeated member keeps its
/// last value. Blank lines are skipped. Times must lie in years 1–9999
/// (UTC) and coordinates are validated.
///
/// Each line is first matched against [`write_jsonl`]'s own layout,
/// its four numbers read by [`JsonReader::scalar_after`]. Any other line
/// is walked once by that reader, the one behind [`Json::parse`], and no
/// JSON tree is built. Both paths give the same rows and the same
/// errors. The counter `data/jsonl_template_misses` counts the non-blank
/// lines that took the walk, published once per read.
///
/// # Errors
///
/// The first malformed line aborts the read with its line number: bad
/// UTF-8 or bad JSON anywhere on the line first, then a missing or
/// mistyped field (`user`, `time`, `location`, `lat`, `lon`, in that
/// order), then a time outside years 1–9999 ([`IoError::Json`]), then
/// an invalid coordinate.
pub fn read_jsonl<R: BufRead>(r: R) -> Result<TweetDataset, IoError> {
    let mut misses = 0;
    let read = read_records(r, template, tweet_fields, &mut misses);
    tweetmob_obs::counter!("data/jsonl_template_misses").add(misses);
    read
}

/// Reads the JSONL stream line by line. `fast` reads the line at the
/// start of the text it is given, if it can; any other line is trimmed
/// and, unless blank, read by `walk` and counted in `misses`.
fn read_records<R: BufRead>(
    r: R,
    fast: fn(&str) -> Option<(Fields, usize)>,
    walk: fn(&str) -> Result<Fields, String>,
    misses: &mut u64,
) -> Result<TweetDataset, IoError> {
    let _span = tweetmob_obs::span!("read_jsonl");
    let mut tweets = Vec::new();
    for_each_line(r, |line, text| {
        let json_err = |message: String| IoError::Json { line, message };
        let ((user, time, lat, lon), len) = match fast(text) {
            Some(read) => read,
            None => {
                let Some(end) = text.find('\n') else {
                    return Ok(0);
                };
                let len = end + 1;
                let text = text[..len].trim();
                if text.is_empty() {
                    return Ok(len);
                }
                *misses += 1;
                (walk(text).map_err(json_err)?, len)
            }
        };
        let time = Timestamp::from_secs(time);
        if !time.is_loadable() {
            return Err(json_err(format!(
                "field `time` must lie in years 1–9999 ({}..={} epoch seconds), found {}",
                Timestamp::FIRST_LOADABLE.as_secs(),
                Timestamp::LAST_LOADABLE.as_secs(),
                time.as_secs()
            )));
        }
        let location =
            Point::new(lat, lon).map_err(|source| IoError::BadCoordinate { line, source })?;
        tweets.push(Tweet::new(UserId(user), time, location));
        Ok(len)
    })?;
    tweetmob_obs::counter!("data/tweets_read").add(tweets.len() as u64);
    Ok(TweetDataset::from_tweets(tweets))
}

/// Reads the stream's lines, cut as [`BufRead::read_until`] would cut
/// them, through `f`. `f(line, text)` gets the text from the start of
/// the line numbered `line` (from 1) to the end of what is known to be
/// UTF-8; it reads that line and returns its length, `\n` included, or 0
/// when `text` does not hold the line's `\n`. A last line without a
/// `\n` is passed with one.
///
/// Each fill of the reader's buffer is checked as UTF-8 once, and the
/// lines that lie whole in its valid part are read in place. The rest,
/// a line that straddles a refill or holds a byte that is not UTF-8, is
/// gathered and checked on its own; if it is not UTF-8, the read fails
/// with that line's [`IoError::Json`].
fn for_each_line<R: BufRead>(
    mut r: R,
    mut f: impl FnMut(usize, &str) -> Result<usize, IoError>,
) -> Result<(), IoError> {
    let mut line = 0;
    // The start of a line that the buffer did not hold whole.
    let mut pending = Vec::new();
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            break;
        }
        let mut used = 0;
        if pending.is_empty() {
            let valid = match std::str::from_utf8(chunk) {
                Ok(text) => text,
                Err(e) => std::str::from_utf8(&chunk[..e.valid_up_to()]).unwrap_or_default(),
            };
            loop {
                let len = f(line + 1, &valid[used..])?;
                if len == 0 {
                    break;
                }
                line += 1;
                used += len;
            }
        }
        let tail = &chunk[used..];
        match tail.iter().position(|&b| b == b'\n') {
            Some(end) => {
                pending.extend_from_slice(&tail[..=end]);
                line += 1;
                f(line, line_text(line, &pending)?)?;
                pending.clear();
                used += end + 1;
            }
            None => {
                pending.extend_from_slice(tail);
                used = chunk.len();
            }
        }
        r.consume(used);
    }
    if !pending.is_empty() {
        line += 1;
        f(line, &format!("{}\n", line_text(line, &pending)?))?;
    }
    Ok(())
}

/// The bytes of line `line` as text.
fn line_text(line: usize, bytes: &[u8]) -> Result<&str, IoError> {
    std::str::from_utf8(bytes).map_err(|e| IoError::Json {
        line,
        message: e.to_string(),
    })
}

/// The line at the start of `text` if it is in [`write_jsonl`]'s
/// layout, read without the member walk: the layout's pieces in order,
/// each followed directly by its number, then `\n` or `\r\n`. Returns
/// the fields and the line's length; `None` for any other line, which
/// [`tweet_fields`] then reads. A line this accepts reads the same there.
fn template(text: &str) -> Option<(Fields, usize)> {
    let mut r = JsonReader::new(text);
    let user = as_user(&r.scalar_after(piece!(user))?)?;
    let time = as_time(&r.scalar_after(piece!(time))?)?;
    let lat = r.scalar_after(piece!(lat))?.as_f64()?;
    let lon = r.scalar_after(piece!(lon))?.as_f64()?;
    let rest = r.rest().strip_prefix(piece!(end))?;
    let rest = rest
        .strip_prefix('\n')
        .or_else(|| rest.strip_prefix("\r\n"))?;
    Some(((user, time, lat, lon), text.len() - rest.len()))
}

/// A `user` value: an integer in `0..=4294967295`.
fn as_user(value: &Json) -> Option<u32> {
    value.as_u64().and_then(|u| u32::try_from(u).ok())
}

/// A `time` value: an integer number of epoch seconds.
fn as_time(value: &Json) -> Option<i64> {
    match *value {
        Json::Int(t) => Some(t),
        _ => None,
    }
}

/// The `user`, `time`, `location.lat` and `location.lon` members of one
/// JSONL record, read in one pass. Each keeps the last value met, and a
/// repeated `location` replaces the whole object. The checks that can
/// fail run once the record has been read, in member order, so a syntax
/// error anywhere on the line wins over a field error.
fn tweet_fields(text: &str) -> Result<Fields, String> {
    // `None`: the member is missing. `Some(None)`: it is there but of the
    // wrong type or out of range.
    let (mut user, mut time, mut location) = (None, None, None);
    let mut r = JsonReader::new(text);
    r.object(&["user", "time", "location"], |r, member| {
        match member {
            0 => {
                user = Some(r.scalar()?.as_ref().and_then(as_user));
            }
            1 => {
                time = Some(r.scalar()?.as_ref().and_then(as_time));
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
    use tweetmob_stats::rng::SplitMix64;

    /// The reference decode: the whole line as a [`Json`] tree, then its
    /// members looked up.
    fn dom_fields(text: &str) -> Result<Fields, String> {
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

    /// Reads `bytes` with `walk` alone, the template never tried.
    fn read_walked(
        bytes: &[u8],
        walk: fn(&str) -> Result<Fields, String>,
    ) -> Result<TweetDataset, IoError> {
        read_records(bytes, |_| None, walk, &mut 0)
    }

    /// Reads `bytes` with [`read_jsonl`], asserts that the member walk
    /// alone and the reference decode read them the same way, and
    /// returns the read.
    pub(super) fn read_checked(bytes: &[u8]) -> Result<TweetDataset, IoError> {
        let read = read_jsonl(bytes);
        let got = outcome(&read);
        let input = String::from_utf8_lossy(bytes);
        assert_eq!(
            got,
            outcome(&read_walked(bytes, tweet_fields)),
            "walk, input {input:?}"
        );
        assert_eq!(
            got,
            outcome(&read_walked(bytes, dom_fields)),
            "reference, input {input:?}"
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
    fn jsonl_rejects_times_outside_years_1_to_9999() {
        let line = |t: i64| {
            format!("{{\"user\":1,\"time\":{t},\"location\":{{\"lat\":-33.0,\"lon\":151.0}}}}\n")
        };
        let (first, last) = (Timestamp::FIRST_LOADABLE, Timestamp::LAST_LOADABLE);
        let ok = line(first.as_secs()) + &line(last.as_secs());
        assert_eq!(read_checked(ok.as_bytes()).unwrap().n_tweets(), 2);
        for bad in [
            first.as_secs() - 1,
            last.as_secs() + 1,
            -9_000_000_000_000_000_000,
            i64::MAX,
        ] {
            let text = line(0) + &line(bad);
            match read_checked(text.as_bytes()) {
                Err(e @ IoError::Json { line: 2, .. }) => {
                    assert!(e.to_string().contains("years 1–9999"), "{e}");
                }
                other => panic!("time {bad}: expected a line-2 error, got {other:?}"),
            }
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

    /// A seeded corpus plus one tweet per edge value: users 0 and
    /// 4294967295, a negative time and the first and last loadable
    /// times, and coordinates that print with a sign, an exponent or at
    /// the ends of their ranges.
    fn edge_dataset() -> TweetDataset {
        let seeded = properties::random_dataset(&mut SplitMix64::new(1), 12);
        let mut tweets: Vec<Tweet> = seeded.iter_tweets().collect();
        let at = |user, secs, lat, lon| {
            Tweet::new(
                UserId(user),
                Timestamp::from_secs(secs),
                Point::new_unchecked(lat, lon),
            )
        };
        let (first, last) = (Timestamp::FIRST_LOADABLE, Timestamp::LAST_LOADABLE);
        tweets.extend([
            at(0, -1, 0.0, 0.0),
            at(u32::MAX, first.as_secs(), 1.5, -2.5),
            at(4, last.as_secs(), -33.9, 151.2),
        ]);
        let lats = [-0.0, 90.0, -90.0, 1e-7, 5e-324];
        let lons = [-0.0, 180.0, -180.0, 1e-7, 5e-324, 90.0, -90.0];
        for (i, &lon) in lons.iter().enumerate() {
            tweets.push(at(5, i as i64, lats[i % lats.len()], lon));
        }
        TweetDataset::from_tweets(tweets)
    }

    /// The edge corpus as [`write_jsonl`] writes it.
    fn edge_jsonl() -> Vec<u8> {
        let mut buf = Vec::new();
        write_jsonl(&edge_dataset(), &mut buf).unwrap();
        buf
    }

    /// The writer's edge values, an exponent included, all read back
    /// through the template.
    #[test]
    fn write_jsonl_output_takes_no_walk() {
        let buf = edge_jsonl();
        let text = std::str::from_utf8(&buf).unwrap();
        for piece in [
            r#"{"user":0,"time":-1,"#,
            r#"{"user":4294967295,"time":-62135596800,"#,
            r#""time":253402300799,"#,
            r#"{"lat":-0.0,"lon":-0.0}"#,
            r#"{"lat":90.0,"lon":180.0}"#,
            r#"{"lat":-90.0,"lon":-180.0}"#,
            r#"{"lat":1e-7,"lon":1e-7}"#,
            r#"{"lat":5e-324,"lon":5e-324}"#,
        ] {
            assert!(text.contains(piece), "{piece} not in {text}");
        }
        let mut misses = 0;
        let read = read_records(&buf[..], template, tweet_fields, &mut misses).unwrap();
        assert_eq!(misses, 0);
        assert!(datasets_equal(&read, &edge_dataset()));
    }

    /// Every single-byte deletion, duplication and substitution (by the
    /// bytes that JSON numbers and the layout are made of, or a line
    /// feed) of every edge line reads the same through the template, the
    /// member walk and the reference decode.
    #[test]
    fn damaged_layout_lines_read_like_the_walk() {
        // A line feed splits the line: no record may be read across it.
        const SUBSTITUTES: &[u8] = b"{}\":,.-+eE09 \\u\n";
        let buf = edge_jsonl();
        let mut checked = 0;
        for line in buf.split_inclusive(|&b| b == b'\n') {
            let body = &line[..line.len() - 1];
            let mut variants = Vec::new();
            for at in 0..body.len() {
                let mut deleted = body.to_vec();
                deleted.remove(at);
                variants.push(deleted);
                let mut doubled = body.to_vec();
                doubled.insert(at, body[at]);
                variants.push(doubled);
                for &b in SUBSTITUTES.iter().filter(|&&b| b != body[at]) {
                    let mut swapped = body.to_vec();
                    swapped[at] = b;
                    variants.push(swapped);
                }
            }
            for mut variant in variants {
                variant.push(b'\n');
                drop(read_checked(&variant));
                checked += 1;
            }
        }
        assert!(checked > 15_000, "{checked}");
    }

    /// Lines cut from the reader's buffer in place read the same as the
    /// whole input at once, whatever the buffer size: straddling lines,
    /// CRLF, blank, padded and reordered lines, multi-byte text, a last
    /// line with no newline, and lines that are not UTF-8 or not JSON,
    /// last or followed by more.
    #[test]
    fn any_buffer_size_reads_like_the_whole_input() {
        let buf = edge_jsonl();
        let lines: Vec<&[u8]> = buf.split_inclusive(|&b| b == b'\n').collect();
        let (mut input, mut walked) = (Vec::new(), 0);
        for (i, line) in lines.iter().enumerate() {
            let body = &line[..line.len() - 1];
            match i % 4 {
                0 => input.extend_from_slice(line),
                1 => {
                    input.extend_from_slice(body);
                    input.extend_from_slice(b"\r\n\n");
                }
                2 => {
                    walked += 1;
                    input.extend_from_slice(b" \t");
                    input.extend_from_slice(body);
                    input.extend_from_slice(b"  \n \t\r\n");
                }
                _ => {
                    walked += 1;
                    input.extend_from_slice(
                        r#"{"text":"café 😀 \u00e9","user":3,"location":{"lon":2.5,"lat":-1},"time":7}"#
                            .as_bytes(),
                    );
                    input.push(b'\n');
                }
            }
        }
        let mut misses = 0;
        read_records(&input[..], template, tweet_fields, &mut misses).unwrap();
        assert_eq!(misses, walked);
        let mut variants = vec![input.clone()];
        let mut unterminated = input.clone();
        unterminated.extend_from_slice(&lines[0][..lines[0].len() - 1]);
        variants.push(unterminated);
        for tail in [&b"{\"text\":\"\xff\"}"[..], b"\xe2\x82", b"{\"user\":1}"] {
            for next in [&b""[..], b"\n", lines[0]] {
                let mut bad = input.clone();
                bad.extend_from_slice(tail);
                bad.extend_from_slice(next);
                variants.push(bad);
            }
        }
        for variant in &variants {
            let want = outcome(&read_checked(variant));
            for capacity in [1, 7, 64] {
                let read = read_jsonl(io::BufReader::with_capacity(capacity, &variant[..]));
                assert_eq!(outcome(&read), want, "capacity {capacity}");
            }
        }
    }

    mod properties {
        use super::super::*;
        use super::read_checked;
        use tweetmob_stats::rng::SplitMix64;

        pub(super) fn random_dataset(rng: &mut SplitMix64, max_len: usize) -> TweetDataset {
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
