//! The workspace's one JSON value, writer and reader.
//!
//! * [`Json`] is a document tree whose objects keep their keys sorted
//!   (a `BTreeMap`), so two renderings of equal values are equal bytes.
//! * [`Json`]'s `Display` writes compact JSON; [`Json::to_pretty`]
//!   writes two-space-indented JSON. Finite `f64`s print through `{:?}`,
//!   the shortest text that parses back to the same bits; non-finite
//!   ones, which JSON cannot spell, print as `null`.
//! * [`Json::parse`] is a strict RFC 8259 reader. Nesting deeper than
//!   128 arrays or objects is refused, so a hostile body cannot exhaust the
//!   stack, and every failure is a [`JsonError`] carrying the byte
//!   offset where reading stopped.
//! * [`JsonReader`] is that reader, walked without building a tree: the
//!   caller picks members by name and reads scalars; every other value
//!   is checked and skipped without allocating. It accepts and rejects
//!   exactly what [`Json::parse`] does. A caller that expects a fixed
//!   layout can also match it piece by piece, each literal followed
//!   directly by a scalar ([`JsonReader::scalar_after`]).
//!   `tweetmob_data::io` reads JSONL tweets with it.
//! * [`ToJson`] is implemented by the result types the CLI and the HTTP
//!   server emit.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`JsonReader`] accepts.
const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

/// Types with a JSON rendering.
pub trait ToJson {
    /// The value as a JSON document.
    fn to_json(&self) -> Json;
}

static NULL: Json = Json::Null;

impl Json {
    /// An object from `(key, value)` entries.
    pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Two-space-indented rendering.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the rendering to `out`: compact under `indent = None`,
    /// else pretty at that many spaces of base indentation.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.iter(), |out, v, ind| {
                v.write(out, ind);
            }),
            Json::Obj(map) => write_seq(out, indent, '{', '}', map.iter(), |out, (k, v), ind| {
                push_quoted(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write(out, ind);
            }),
        }
    }

    /// Parses one JSON document; only whitespace may follow it.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming what was wrong and at which byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = JsonReader::new(text);
        let value = r.value()?;
        r.finish()?;
        Ok(value)
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: I,
    mut item: impl FnMut(&mut String, I::Item, Option<usize>),
) {
    out.push(open);
    let n = items.len();
    let inner = indent.map(|i| i + 2);
    for (i, v) in items.enumerate() {
        if let Some(width) = inner {
            let _ = write!(out, "\n{:width$}", "");
        }
        item(out, v, inner);
        if i + 1 < n {
            out.push(',');
        }
    }
    if let (Some(width), true) = (indent, n > 0) {
        let _ = write!(out, "\n{:width$}", "");
    }
    out.push(close);
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `doc["key"]`: the member, or `null` when absent (as in JavaScript).
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `doc[i]`: the element, or `null` when out of range or not an array.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<i64> for Json {
    fn eq(&self, other: &i64) -> bool {
        *self == Json::Int(*other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// One `From` impl per plain value type.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    f64 => |x| Json::Num(x),
    i64 => |i| Json::Int(i),
    u32 => |u| Json::Int(i64::from(u)),
    // Beyond i64 a count is only representable as a double.
    u64 => |u| i64::try_from(u).map_or(Json::Num(u as f64), Json::Int),
    usize => |u| Json::from(u as u64),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_string()),
    String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Appends `s` as a quoted, escaped JSON string.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` escaped for the inside of a JSON string.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// What [`Json::parse`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the expected token, or
    /// non-whitespace after the document.
    UnexpectedByte,
    /// A malformed or non-finite number.
    InvalidNumber,
    /// A malformed `\` escape, an unpaired surrogate or a raw control
    /// character inside a string.
    InvalidString,
    /// Nesting deeper than 128 arrays or objects.
    TooDeep,
}

/// A JSON syntax error and the byte offset where it was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the parsed text.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            JsonErrorKind::UnexpectedEnd => "unexpected end of input",
            JsonErrorKind::UnexpectedByte => "unexpected character",
            JsonErrorKind::InvalidNumber => "invalid number",
            JsonErrorKind::InvalidString => "invalid string escape or control character",
            JsonErrorKind::TooDeep => "nesting deeper than 128",
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Where the text of a JSON string goes as [`JsonReader`] unescapes it:
/// into a `String` when building a [`Json`] tree, nowhere when the string
/// is only checked, and into a comparison when it is a member key.
trait StrSink {
    /// A run copied verbatim from the input: no quote, backslash or
    /// control character.
    fn push_run(&mut self, run: &str);
    /// One escaped character.
    fn push_char(&mut self, c: char);
}

impl StrSink for String {
    fn push_run(&mut self, run: &str) {
        self.push_str(run);
    }

    fn push_char(&mut self, c: char) {
        self.push(c);
    }
}

/// The sink of a string that is checked and skipped. It notes whether
/// the string held an escape.
struct Discard {
    escaped: bool,
}

impl StrSink for Discard {
    fn push_run(&mut self, _: &str) {}

    fn push_char(&mut self, _: char) {
        self.escaped = true;
    }
}

/// Compares a string's text with `expected` as the string is read.
struct Spells<'e> {
    rest: &'e [u8],
    equal: bool,
}

impl StrSink for Spells<'_> {
    fn push_run(&mut self, run: &str) {
        match self.rest.strip_prefix(run.as_bytes()) {
            Some(rest) if self.equal => self.rest = rest,
            _ => self.equal = false,
        }
    }

    fn push_char(&mut self, c: char) {
        self.push_run(c.encode_utf8(&mut [0; 4]));
    }
}

/// Whether the JSON string `quoted` (quotes included) unescapes to
/// `name`. Keys with escapes are rare, so this re-reads the key.
#[cold]
fn unescapes_to(quoted: &str, name: &str) -> bool {
    let mut text = Spells {
        rest: name.as_bytes(),
        equal: true,
    };
    let read = JsonReader::new(quoted).string_into(&mut text);
    read.is_ok() && text.equal && text.rest.is_empty()
}

/// The workspace's one JSON reader. [`Json::parse`] builds a tree with
/// it. Its public methods walk a document without building one: a
/// caller reads the members it names and the values it wants, and every
/// other value is checked against the same grammar and skipped without
/// allocating. Errors, offsets and the 128-level nesting limit are the
/// same either way.
pub struct JsonReader<'a> {
    text: &'a str,
    /// `text`'s bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// `text[start..self.pos]`, which begins and ends at ASCII bytes.
    #[inline]
    fn since(&self, start: usize) -> &'a str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    /// Reads the next value. A number, `true`, `false` or `null` comes
    /// back as a [`Json`], which for these owns no heap memory. A string,
    /// array or object is checked and skipped, and reads as `None`.
    ///
    /// # Errors
    ///
    /// The [`JsonError`] that [`Json::parse`] gives for the same text.
    #[inline]
    pub fn scalar(&mut self) -> Result<Option<Json>, JsonError> {
        self.skip_ws();
        match self.peek()? {
            b'"' | b'[' | b'{' => self.skip().map(|()| None),
            _ => self.atom().map(Some),
        }
    }

    /// Reads the next value without building it, and returns whether it
    /// was an object. For an object, `member(self, i)` runs at the value
    /// of each member whose key, unescaped, is `names[i]`; `member` must
    /// read that value with one call of [`JsonReader::scalar`] or
    /// [`JsonReader::object`]. Every other member, and any value that is
    /// not an object, is checked and skipped.
    ///
    /// # Errors
    ///
    /// The [`JsonError`] that [`Json::parse`] gives for the same text, or
    /// the first error `member` returns.
    pub fn object<const N: usize>(
        &mut self,
        names: &[&str; N],
        mut member: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek()? != b'{' {
            self.skip()?;
            return Ok(false);
        }
        self.nested(b'}', |r| match r.key_among(names)? {
            Some(i) => member(r, i),
            None => r.skip(),
        })?;
        Ok(true)
    }

    /// Consumes `literal` and the scalar that follows it directly, and
    /// returns that scalar. No whitespace is skipped, before the literal
    /// or after it, so a caller can match a fixed layout piece by piece,
    /// one line of a longer text say, without reading past its end.
    /// Returns `None` if the text does not continue with `literal` and
    /// then a valid number, `true`, `false` or `null`; the reader's
    /// position is then unspecified.
    #[inline]
    pub fn scalar_after(&mut self, literal: &str) -> Option<Json> {
        let rest = self.bytes.get(self.pos..)?;
        if !rest.starts_with(literal.as_bytes()) {
            return None;
        }
        self.pos += literal.len();
        self.atom().ok()
    }

    /// The text not read yet.
    #[must_use]
    pub fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    /// Checks that only whitespace follows the values read.
    ///
    /// # Errors
    ///
    /// An [`JsonErrorKind::UnexpectedByte`] error at the first other byte.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err(JsonErrorKind::UnexpectedByte));
        }
        Ok(())
    }

    #[inline]
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Result<u8, JsonError> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err(JsonErrorKind::UnexpectedEnd))
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(JsonErrorKind::UnexpectedByte))
        }
    }

    fn literal(&mut self, word: &[u8], value: Json) -> Result<Json, JsonError> {
        for &b in word {
            self.eat(b)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek()? {
            b'"' => self.string().map(Json::Str),
            b'[' => {
                let mut items = Vec::new();
                self.nested(b']', |r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            b'{' => {
                let mut map = BTreeMap::new();
                // A repeated key keeps its last value.
                self.nested(b'}', |r| {
                    let mut key = String::new();
                    r.key(&mut key)?;
                    map.insert(key, r.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            _ => self.atom(),
        }
    }

    /// Checks and skips the next value, allocating nothing.
    fn skip(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek()? {
            b'"' => self.string_into(&mut Discard { escaped: false }),
            b'[' => self.nested(b']', Self::skip),
            b'{' => self.nested(b'}', |r| {
                r.key(&mut Discard { escaped: false })?;
                r.skip()
            }),
            _ => self.atom().map(drop),
        }
    }

    /// At a byte that opens no string, array or object: `null`, `true`,
    /// `false` or a number.
    #[inline]
    fn atom(&mut self) -> Result<Json, JsonError> {
        match self.peek()? {
            b'n' => self.literal(b"null", Json::Null),
            b't' => self.literal(b"true", Json::Bool(true)),
            b'f' => self.literal(b"false", Json::Bool(false)),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err(JsonErrorKind::UnexpectedByte)),
        }
    }

    /// At `[` or `{`: one level deeper, the comma-separated items up to
    /// and including `close`, each read by `item`.
    fn nested(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err(JsonErrorKind::UnexpectedByte)),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// A member's key and the `:` after it: which of `names` the key
    /// spells, if any.
    fn key_among<const N: usize>(&mut self, names: &[&str; N]) -> Result<Option<usize>, JsonError> {
        self.skip_ws();
        // Most keys are one of `names` written without escapes: match
        // them in place. A name with a quote, a backslash or a control
        // character cannot be written that way.
        if self.peek()? == b'"' {
            let rest = &self.bytes[self.pos + 1..];
            let written = |name: &&str| {
                rest.get(name.len()) == Some(&b'"')
                    && name
                        .bytes()
                        .zip(rest)
                        .all(|(a, &b)| a == b && a >= 0x20 && a != b'"' && a != b'\\')
            };
            if let Some(i) = names.iter().position(written) {
                self.pos += names[i].len() + 2;
                self.skip_ws();
                self.eat(b':')?;
                return Ok(Some(i));
            }
        }
        let mut key = Discard { escaped: false };
        let quoted = self.key(&mut key)?;
        // A key without escapes that spelled a name matched above.
        Ok(if key.escaped {
            names.iter().position(|name| unescapes_to(quoted, name))
        } else {
            None
        })
    }

    /// A member's key, its text going to `out`, and the `:` after it.
    /// Returns the key as written, quotes included.
    fn key(&mut self, out: &mut impl StrSink) -> Result<&'a str, JsonError> {
        self.skip_ws();
        if self.peek()? != b'"' {
            return Err(self.err(JsonErrorKind::UnexpectedByte));
        }
        let start = self.pos;
        self.string_into(out)?;
        let quoted = self.since(start);
        self.skip_ws();
        self.eat(b':')?;
        Ok(quoted)
    }

    /// At `"`: the unescaped string, consuming the closing quote.
    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// At `"`: the string's text into `out`, consuming the closing quote.
    fn string_into(&mut self, out: &mut impl StrSink) -> Result<(), JsonError> {
        self.pos += 1;
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_run(self.since(start));
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.pos += 1;
                    let c = match self.peek()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            self.pos += 1;
                            out.push_char(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err(JsonErrorKind::InvalidString)),
                    };
                    self.pos += 1;
                    out.push_char(c);
                }
                _ => return Err(self.err(JsonErrorKind::InvalidString)),
            }
        }
    }

    /// After `\u`: the escaped character, pairing a high surrogate with
    /// the `\uXXXX` low surrogate that must follow it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                self.eat(b'\\')?;
                self.eat(b'u')?;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err(JsonErrorKind::InvalidString));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err(JsonErrorKind::InvalidString))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = char::from(self.peek()?)
                .to_digit(16)
                .ok_or_else(|| self.err(JsonErrorKind::InvalidString))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    #[inline]
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    #[inline]
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        let mut integral = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            integral = false;
            if self.digits() == 0 {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            integral = false;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        if integral && int_digits <= 18 {
            // Fits `i64`: the same value `parse` gives, without a second
            // pass over the digits.
            let magnitude = self.bytes[int_start..self.pos]
                .iter()
                .fold(0, |v: i64, &d| v * 10 + i64::from(d - b'0'));
            return Ok(Json::Int(if int_start > start {
                -magnitude
            } else {
                magnitude
            }));
        }
        let text = self.since(start);
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(JsonError {
                kind: JsonErrorKind::InvalidNumber,
                offset: start,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_rendering() {
        let doc = Json::obj([
            ("b", Json::from(vec![1u64, 2])),
            ("a", Json::from("x\"y")),
            ("c", Json::obj([])),
            ("d", Json::Arr(vec![])),
            ("e", Json::from(1.5)),
            ("f", Json::from(None::<f64>)),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"a":"x\"y","b":[1,2],"c":{},"d":[],"e":1.5,"f":null}"#
        );
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"a\": \"x\\\"y\",\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": {},\n  \
             \"d\": [],\n  \"e\": 1.5,\n  \"f\": null\n}"
        );
    }

    #[test]
    fn non_finite_numbers_write_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::from(3.0).to_string(), "3.0");
    }

    #[test]
    fn parses_every_value_kind() {
        let doc = Json::parse(
            " {\"s\": \"a\\u00e9\\ud83d\\ude00\\n\", \"n\": -1.25e2, \"i\": 42, \
             \"b\": [true, false, null], \"o\": {}} ",
        )
        .unwrap();
        assert_eq!(doc["s"].as_str(), Some("a\u{e9}\u{1F600}\n"));
        assert_eq!(doc["n"], Json::Num(-125.0));
        assert_eq!(doc["i"].as_u64(), Some(42));
        assert_eq!(doc["b"][0], Json::Bool(true));
        assert!(doc["b"][2].is_null());
        assert!(doc["missing"].is_null());
        assert_eq!(doc["o"].as_object().map(BTreeMap::len), Some(0));
    }

    #[test]
    fn rejects_malformed_input_with_offsets() {
        let cases: [(&str, JsonErrorKind, usize); 12] = [
            ("", JsonErrorKind::UnexpectedEnd, 0),
            ("[1,]", JsonErrorKind::UnexpectedByte, 3),
            ("{\"a\" 1}", JsonErrorKind::UnexpectedByte, 5),
            ("01", JsonErrorKind::InvalidNumber, 2),
            ("1.", JsonErrorKind::InvalidNumber, 2),
            ("1e999", JsonErrorKind::InvalidNumber, 0),
            ("-", JsonErrorKind::InvalidNumber, 1),
            ("\"\\x\"", JsonErrorKind::InvalidString, 2),
            ("\"\\ud800\"", JsonErrorKind::UnexpectedByte, 7),
            ("\"a\nb\"", JsonErrorKind::InvalidString, 2),
            ("nul", JsonErrorKind::UnexpectedEnd, 3),
            ("{} x", JsonErrorKind::UnexpectedByte, 3),
        ];
        for (text, kind, offset) in cases {
            assert_eq!(
                Json::parse(text),
                Err(JsonError { kind, offset }),
                "{text:?}"
            );
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        assert_eq!(walk(&ok), Ok(()));
        let deep = "[".repeat(1 << 20);
        let too_deep = Err(JsonError {
            kind: JsonErrorKind::TooDeep,
            offset: MAX_DEPTH,
        });
        assert_eq!(Json::parse(&deep).map(drop), too_deep);
        assert_eq!(walk(&deep), too_deep);
    }

    /// Walks `text` with [`JsonReader`], reading member `a` as a scalar
    /// and the `c` member of object member `b`, skipping all else.
    fn walk(text: &str) -> Result<(), JsonError> {
        let mut r = JsonReader::new(text);
        r.object(&["a", "b"], |r, i| {
            if i == 0 {
                r.scalar().map(drop)
            } else {
                r.object(&["c"], |r, _| r.scalar().map(drop)).map(drop)
            }
        })?;
        r.finish()
    }

    #[test]
    fn reader_reads_scalars_right_after_literals() {
        let mut r = JsonReader::new(r#"{"x":-1.5e2,"y":7}"#);
        assert_eq!(r.scalar_after(r#"{"x":"#), Some(Json::Num(-150.0)));
        assert_eq!(r.rest(), r#","y":7}"#);
        assert_eq!(r.scalar_after(r#","y":"#), Some(Json::Int(7)));
        assert_eq!(r.rest(), "}");
        assert_eq!(r.scalar_after("}"), None);
        assert_eq!(
            JsonReader::new("[null]").scalar_after("["),
            Some(Json::Null)
        );
        // Only the literal, then directly a valid scalar that is not a
        // string: no whitespace is skipped before either.
        for (text, literal) in [
            (r#"{"x":1}"#, r#"{"y":"#),
            (r#" {"x":1}"#, r#"{"x":"#),
            (r#"{"x": 1}"#, r#"{"x":"#),
            ("{\"x\":\r\n1}", r#"{"x":"#),
            (r#"{"x":"1"}"#, r#"{"x":"#),
            (r#"{"x":[1]}"#, r#"{"x":"#),
            (r#"{"x":01}"#, r#"{"x":"#),
            (r#"{"x":1."#, r#"{"x":"#),
            (r#"{"x":"#, r#"{"x":"#),
        ] {
            assert_eq!(JsonReader::new(text).scalar_after(literal), None, "{text}");
        }
    }

    #[test]
    fn reader_picks_members_by_unescaped_name() {
        let text =
            r#"{"a":1,"ab":"s","":2,"\u0061":3,"b":{"c":[4],"c":5.5,"cc":6},"b\u0000":7,"a\"b":8}"#;
        let mut seen = Vec::new();
        let mut r = JsonReader::new(text);
        let names = ["a", "b", "ab", "a\"b"];
        let was_object = r.object(&names, |r, i| {
            if names[i] == "b" {
                r.object(&["c"], |r, _| {
                    seen.push(("c", r.scalar()?));
                    Ok(())
                })?;
            } else {
                seen.push((names[i], r.scalar()?));
            }
            Ok(())
        });
        assert_eq!(was_object, Ok(true));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            seen,
            [
                ("a", Some(Json::Int(1))),
                ("ab", None),
                ("a", Some(Json::Int(3))),
                ("c", None),
                ("c", Some(Json::Num(5.5))),
                ("a\"b", Some(Json::Int(8))),
            ]
        );
        let mut r = JsonReader::new(" [1, {\"a\": 2}] ");
        let mut calls = 0;
        let read = r.object(&["a"], |r, _| {
            calls += 1;
            r.scalar().map(drop)
        });
        assert_eq!((read, calls), (Ok(false), 0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        let mut rng = tweetmob_stats::rng::SplitMix64::new(7);
        let edge = [
            0.0,
            -0.0,
            1e-7,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::EPSILON,
            1e16,
            -33.8688,
        ];
        let random = (0..4096).map(|_| f64::from_bits(rng.next_u64()));
        for x in edge.into_iter().chain(random).filter(|x| x.is_finite()) {
            let text = Json::from(x).to_string();
            let back = Json::parse(&text).ok().and_then(|j| j.as_f64());
            assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{x:?} as {text}");
        }
    }

    /// A document exercising every value kind, escapes and nesting.
    const VALID: &str = r#"{"a": [1, -2.5e3, true, false, null], "b": {"c": "x\"y\u00e9\n"},
        "d": [[], {}, [{"e": 0.125}]], "f": "\ud83d\ude00"}"#;

    #[test]
    fn every_truncation_is_a_typed_error() {
        assert!(Json::parse(VALID).is_ok());
        for cut in (0..VALID.len()).filter(|&c| VALID.is_char_boundary(c)) {
            let err = Json::parse(&VALID[..cut]).expect_err("a strict prefix is incomplete");
            assert!(err.offset <= cut, "cut {cut}: {err}");
            assert_eq!(walk(&VALID[..cut]), Err(err), "cut {cut}");
        }
    }

    #[test]
    fn mutated_documents_never_panic() {
        let alphabet = br#"{}[]:,"\ 0123456789.eE+-tfnulrsaxu"#;
        for seed in 0..2048 {
            let mut rng = tweetmob_stats::rng::SplitMix64::new(seed);
            let mut bytes = VALID.as_bytes().to_vec();
            for _ in 0..1 + rng.next_below(4) {
                let at = rng.next_below(bytes.len());
                let b = alphabet[rng.next_below(alphabet.len())];
                match rng.next_below(3) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            // ASCII document, ASCII mutations: the text stays UTF-8.
            let text = String::from_utf8(bytes).expect("ASCII text");
            let parsed = Json::parse(&text);
            if let Err(e) = parsed {
                assert!(e.offset <= text.len(), "seed {seed}: {e}");
            }
            assert_eq!(walk(&text), parsed.map(drop), "seed {seed}: {text}");
        }
    }
}
