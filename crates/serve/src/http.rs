//! A deliberately small HTTP/1.1 subset: enough to parse the requests
//! the serving layer answers and to write well-formed responses, with
//! hard byte limits so no client can balloon server memory. Anything
//! outside the subset is a typed [`HttpError`] that the connection loop
//! turns into a `400` — never a panic.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Longest accepted request line (method + target + version), bytes.
const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Most headers accepted on one request.
const MAX_HEADERS: usize = 64;

/// Largest accepted request body, bytes. Scenario requests are a few
/// hundred bytes of JSON; a megabyte is already generous.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be parsed. Every variant maps to a `400`
/// (the connection is closed afterwards — a malformed stream cannot be
/// re-synchronised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line was missing, overlong, or not `METHOD TARGET
    /// HTTP/1.x`.
    BadRequestLine,
    /// More than [`MAX_HEADERS`] header lines, a header without `:`, or
    /// a `Transfer-Encoding` header (only `Content-Length` framing is
    /// supported).
    BadHeader,
    /// `Content-Length` was present but not a string of ASCII digits,
    /// or was repeated with a different value.
    BadContentLength,
    /// The declared body length exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The underlying socket failed mid-request.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed HTTP request line"),
            HttpError::BadHeader => write!(f, "malformed or too many HTTP headers"),
            HttpError::BadContentLength => write!(f, "Content-Length is not one decimal integer"),
            HttpError::BodyTooLarge(n) => {
                write!(
                    f,
                    "request body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )
            }
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request: method, decoded path, decoded query parameters
/// and the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, query string stripped (e.g. `/predict`).
    pub path: String,
    /// Percent-decoded query parameters. Last occurrence of a repeated
    /// key wins; `BTreeMap` keeps iteration deterministic.
    pub query: BTreeMap<String, String>,
    /// Raw request body (empty unless `Content-Length` said otherwise).
    pub body: String,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub close: bool,
}

/// Reads one request off a buffered stream. `Ok(None)` is a clean
/// end-of-stream before any bytes (the keep-alive loop's exit);
/// anything malformed is an [`HttpError`].
pub fn read_request<R: BufRead>(stream: &mut R) -> Result<Option<Request>, HttpError> {
    let Some(line) = read_line(stream, MAX_REQUEST_LINE_BYTES)? else {
        return Ok(None);
    };
    if line.is_empty() {
        return Err(HttpError::BadRequestLine);
    }
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine);
    }

    let mut content_length: Option<usize> = None;
    let mut close = false;
    for n in 0..=MAX_HEADERS {
        let header = read_line(stream, MAX_REQUEST_LINE_BYTES)?.ok_or(HttpError::BadHeader)?;
        if header.is_empty() {
            break;
        }
        if n == MAX_HEADERS {
            return Err(HttpError::BadHeader);
        }
        let (name, value) = header.split_once(':').ok_or(HttpError::BadHeader)?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only (`usize::from_str` would take a leading `+`),
            // and a repeat must agree (RFC 9112 §6.3).
            let n = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or(HttpError::BadContentLength)?;
            if content_length.is_some_and(|seen| seen != n) {
                return Err(HttpError::BadContentLength);
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // A chunked body left unread would be parsed as the next
            // keep-alive request.
            return Err(HttpError::BadHeader);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body_bytes = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(stream, &mut body_bytes)
            .map_err(|e| HttpError::Io(e.to_string()))?;
    }
    let body = String::from_utf8_lossy(&body_bytes).into_owned();

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = BTreeMap::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }

    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path: percent_decode(raw_path),
        query,
        body,
        close,
    }))
}

/// Reads one CRLF- (or LF-)terminated line, rejecting lines over
/// `limit` bytes. `Ok(None)` on immediate end-of-stream.
fn read_line<R: BufRead>(stream: &mut R, limit: usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match std::io::Read::read(stream, &mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::Io("connection closed mid-line".into()))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
                }
                buf.push(byte[0]);
                if buf.len() > limit {
                    return Err(HttpError::BadRequestLine);
                }
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space. Invalid escapes pass through
/// literally — lenient by design, since the decoded text only ever
/// feeds name lookups and number parsing that reject garbage anyway.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            // Index on raw bytes, never slice `s`: an escape butting up
            // against multi-byte UTF-8 must not hit a char boundary.
            b'%' if i + 2 < bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let hi = (bytes[i + 1] as char).to_digit(16).unwrap_or(0) as u8;
                let lo = (bytes[i + 2] as char).to_digit(16).unwrap_or(0) as u8;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response: status, reason, content type and body. Writing adds
/// `Content-Length` and a `Connection` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 400, 404, 405, 500).
    pub status: u16,
    /// `Content-Type` of the body; handlers emit `application/json`.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` JSON response.
    #[must_use]
    pub fn json(body: String) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// The standard reason phrase for this status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        }
    }

    /// Serializes the response onto a socket. `close` controls the
    /// `Connection` header, mirroring the request's wish.
    ///
    /// The whole response is assembled in memory and written with a
    /// single `write_all`: piecewise `write!` fragments on a raw socket
    /// become separate small segments, and Nagle's algorithm crossed
    /// with delayed ACKs turns each of those into a ~40 ms stall.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool) -> std::io::Result<()> {
        let connection = if close { "close" } else { "keep-alive" };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        let mut wire = Vec::with_capacity(head.len() + self.body.len());
        wire.extend_from_slice(head.as_bytes());
        wire.extend_from_slice(self.body.as_bytes());
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query_and_escapes() {
        let req = parse("GET /predict?origin=New%20South+Wales&k=3 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/predict");
        assert_eq!(
            req.query.get("origin").map(String::as_str),
            Some("New South Wales")
        );
        assert_eq!(req.query.get("k").map(String::as_str), Some("3"));
        assert!(!req.close);
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(
            "POST /epidemic HTTP/1.1\r\nContent-Length: 13\r\nConnection: close\r\n\r\n{\"beta\": 0.5}",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"beta\": 0.5}");
        assert!(req.close);
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert_eq!(parse(""), Ok(None));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(parse("garbage\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(&format!(
                "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )),
            Err(HttpError::BodyTooLarge(MAX_BODY_BYTES + 1))
        );
    }

    #[test]
    fn framing_the_server_cannot_honour_is_rejected() {
        let post = |headers: &str| parse(&format!("POST /epidemic HTTP/1.1\r\n{headers}\r\nhello"));
        for bad in ["+5", "-5", " ", "5 5", "0x5", "5,5", "١"] {
            assert_eq!(
                post(&format!("Content-Length: {bad}\r\n")),
                Err(HttpError::BadContentLength),
                "{bad:?}"
            );
        }
        assert_eq!(
            post("Content-Length: 5\r\nContent-Length: 6\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            post("Content-Length: 5\r\nTransfer-Encoding: chunked\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            post("transfer-encoding: identity\r\n"),
            Err(HttpError::BadHeader)
        );
        // Equal duplicates are one length; leading zeros are digits.
        let req = post("Content-Length: 5\r\ncontent-length: 005\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn mutated_requests_never_panic() {
        let valid = b"POST /epidemic?seed=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\nConnection: keep-alive\r\n\r\n{\"beta\": 0.5}";
        for seed in 0..1_000 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let mut raw = valid.to_vec();
            raw.truncate(1 + rng.next_below(raw.len()));
            for _ in 0..=rng.next_below(4) {
                let at = rng.next_below(raw.len());
                raw[at] ^= 1 << rng.next_below(8);
            }
            let outcome = std::panic::catch_unwind(|| read_request(&mut BufReader::new(&raw[..])));
            assert!(
                outcome.is_ok(),
                "seed {seed}: read_request panicked on {raw:?}"
            );
        }
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        assert_eq!(percent_decode("a%zzb%2"), "a%zzb%2");
        assert_eq!(percent_decode("%41+%42"), "A B");
    }

    #[test]
    fn responses_carry_length_and_connection_headers() {
        let mut out = Vec::new();
        Response::json("{}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
