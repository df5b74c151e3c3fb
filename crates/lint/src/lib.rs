//! # tweetmob-lint
//!
//! A hand-rolled static-analysis pass over the workspace's `.rs` sources,
//! enforcing the repo invariants that rustc and clippy cannot express.
//! The paper's headline results (Fig. 3 Pearson r = 0.816, Table II
//! Gravity-beats-Radiation) are pure numeric claims, so the reproduction
//! lives or dies on silent numeric and determinism bugs. Everything clippy
//! can check from types lives in the root `clippy.toml` and the lint
//! levels instead: panicking calls (`unwrap_used`, `expect_used`,
//! `panic`, `unreachable`), lossy casts (`cast_possible_truncation`),
//! clocks, raw threads and hash collections (`disallowed_methods` /
//! `disallowed_types`), with `#[expect(..., reason = "...")]` as the one
//! escape hatch. What remains here:
//!
//! * **`float-ord`** — no NaN-unsafe float ordering: `partial_cmp` is
//!   rejected outright, and `sort_by` / `max_by` / `min_by` comparator
//!   closures must route through `total_cmp` (or integer `cmp`). A
//!   clippy ban on `partial_cmp` would also fire inside every
//!   `#[derive(PartialOrd)]`.
//! * **`raw-haversine`** — no direct `haversine_km` calls in the
//!   model-fitting crates (`models`, `epidemic`): pairwise distances
//!   there route through the shared `PairGeometry` cache so the hot path
//!   never recomputes transcendentals and the `cache/pairgeo/*` metrics
//!   stay honest. In the batch-kernel crates (`geo`, `core`) the same
//!   rule bans per-element `haversine_km` calls inside `for`/`while`/
//!   `loop` bodies: per-element distances there go through
//!   `TrigPoint::distance_km`, which hoists each point's trigonometry
//!   out of the loop.
//!
//! Both rules are textual: [`lint_files`] runs them over each file on
//! its own, so no rule needs a model of the workspace.
//!
//! The workspace's public surface is additionally snapshotted into a
//! committed `API.lock` (see [`api_snapshot`] / [`diff_api`]); the binary's
//! `--check-api` mode fails on any uncommitted drift. The snapshot is the
//! one reader of the item parser (lexer → item parser; its architecture
//! and caveats are in DESIGN.md §12).
//!
//! No rule has an escape hatch: a finding is fixed, not annotated.
//!
//! The engine is dependency-free (no `syn`): string literals, comments and
//! `#[test]` / `#[cfg(test)]` regions are stripped (byte-preservingly)
//! before any rule fires, so fixtures in doc comments or test modules never
//! trip the linter.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod api_lock;
mod model;

pub use api_lock::diff_api;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library code must take pairwise distances from the shared
/// `PairGeometry` cache rather than calling `haversine_km` per pair: these
/// sit on the model-fitting hot path, where a stray scalar call silently
/// reintroduces the O(n²) transcendental cost the cache exists to remove.
const GEOMETRY_CACHE_CRATES: &[&str] = &["tweetmob-models", "tweetmob-epidemic"];

/// Crates that own the columnar batch kernels. A scalar `haversine_km`
/// call inside a `for`/`while`/`loop` body here is a per-element
/// distance loop that belongs on `tweetmob_geo::TrigPoint` (each
/// point's trigonometry hoisted once, as `AreaSet` and `displacement`
/// do); one-off calls outside loops remain fine — these crates
/// legitimately measure single pairs during construction and queries.
const BATCH_KERNEL_CRATES: &[&str] = &["tweetmob-geo", "tweetmob-core"];

/// The two rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// NaN-unsafe float ordering.
    FloatOrd,
    /// Scalar `haversine_km` call in a crate that must use the geometry cache.
    RawHaversine,
}

impl Rule {
    /// The rule's name, as printed in diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatOrd => "float-ord",
            Rule::RawHaversine => "raw-haversine",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file (workspace-relative when loaded through
    /// [`load_workspace`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a source file participates in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/lib.rs` — crate root of a library crate.
    LibRoot,
    /// `src/main.rs` — crate root of a binary crate.
    BinRoot,
    /// Any other module of a library crate.
    Library,
    /// A module of a binary crate, or a `src/bin/*` target.
    Binary,
}

impl FileKind {
    /// Library code (crate root or module) — the scope of `raw-haversine`
    /// and the `API.lock` snapshot.
    #[must_use]
    pub fn is_library(self) -> bool {
        matches!(self, FileKind::LibRoot | FileKind::Library)
    }
}

/// One workspace source file, loaded and classified — the input unit of
/// [`lint_files`] and [`api_snapshot`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display label used verbatim in diagnostics (workspace-relative path
    /// when loaded through [`load_workspace`]).
    pub label: String,
    /// Package name of the owning crate.
    pub crate_name: String,
    /// How the file participates in its crate.
    pub kind: FileKind,
    /// Full source text.
    pub source: String,
}

/// Runs the textual rules over one file, appending its findings
/// unsorted.
fn lint_source(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = strip_non_code(&file.source);
    let tests = find_test_regions(&code);
    check_float_ord(&file.label, &code, &tests, out);
    let crate_name = file.crate_name.as_str();
    if file.kind.is_library()
        && (GEOMETRY_CACHE_CRATES.contains(&crate_name)
            || BATCH_KERNEL_CRATES.contains(&crate_name))
    {
        check_raw_haversine(&file.label, crate_name, &code, &tests, out);
    }
}

/// Lints a loaded file set, file by file. Findings come out ordered by
/// `(file, line, rule, message)`, so multi-rule output on a single line
/// is byte-stable across runs.
#[must_use]
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        lint_source(file, &mut out);
    }
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    out
}

/// Loads every lintable workspace source file under `root`.
///
/// # Errors
///
/// Propagates I/O failures reading the source tree.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for (path, crate_name, kind) in workspace_files(root)? {
        let source = fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        files.push(SourceFile {
            label,
            crate_name,
            kind,
            source,
        });
    }
    Ok(files)
}

/// Renders the public-API snapshot (`API.lock` contents) of a loaded file
/// set. Deterministic: sorted, deduplicated, newline-terminated.
#[must_use]
pub fn api_snapshot(files: &[SourceFile]) -> String {
    api_lock::render_api(&model::parse_workspace(files))
}

/// Enumerates the workspace's lintable `.rs` files: the root package's
/// `src/` plus every `crates/*/src/`. Integration tests, examples and
/// benches are exercised by `cargo test` itself and are out of scope.
///
/// # Errors
///
/// Rejects a `root` that is not a workspace (no `Cargo.toml`) — a typo'd
/// path must not pass as "clean" — and propagates I/O failures listing
/// directories.
fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String, FileKind)>> {
    if !root.join("Cargo.toml").is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no Cargo.toml under {} — not a workspace root",
                root.display()
            ),
        ));
    }
    let mut packages: Vec<PathBuf> = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        packages.extend(members);
    }

    let mut out = Vec::new();
    for pkg in packages {
        let src = pkg.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = package_name(&pkg)?;
        let is_bin_crate = !src.join("lib.rs").is_file();
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let in_bin_dir = path
                .strip_prefix(&src)
                .ok()
                .is_some_and(|rel| rel.starts_with("bin"));
            let kind = if path == src.join("lib.rs") {
                FileKind::LibRoot
            } else if path == src.join("main.rs") {
                FileKind::BinRoot
            } else if in_bin_dir || is_bin_crate {
                FileKind::Binary
            } else {
                FileKind::Library
            };
            out.push((path, crate_name.clone(), kind));
        }
    }
    Ok(out)
}

/// Reads the `name = "..."` of a package's `Cargo.toml` (first `name` key
/// in the `[package]` table).
fn package_name(pkg: &Path) -> io::Result<String> {
    let manifest = fs::read_to_string(pkg.join("Cargo.toml"))?;
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package && line.starts_with("name") {
            if let Some(v) = line.split('"').nth(1) {
                return Ok(v.to_string());
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("no package name in {}", pkg.display()),
    ))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Source stripping: comments, strings and char literals become spaces so
// token searches and paren matching see only real code. The stripper is
// byte-preserving (a blanked multibyte char becomes that many spaces), so
// every offset into the stripped text indexes the raw source too — the
// item parser slices raw signatures through stripped offsets.
// ---------------------------------------------------------------------------

/// Pushes `c` to `buf` blanked: the same number of bytes as `c`, all
/// spaces (newlines stay, keeping line geometry).
fn push_blank(buf: &mut String, c: char) {
    if c == '\n' {
        buf.push('\n');
    } else {
        for _ in 0..c.len_utf8() {
            buf.push(' ');
        }
    }
}

/// The source with every comment, string and char-literal byte replaced
/// by a space (newlines preserved), so offsets map 1:1 to raw bytes and
/// line numbers.
pub(crate) fn strip_non_code(src: &str) -> String {
    blank_source(src, true)
}

/// The source with only its comments blanked: the text item signatures
/// are sliced from, so a doc comment between an item's tokens is not
/// part of its public-API line. Byte-preserving like [`strip_non_code`].
pub(crate) fn strip_comments(src: &str) -> String {
    blank_source(src, false)
}

/// Blanks comments, and string and char literals too when
/// `blank_literals`; a kept literal is copied through unchanged.
fn blank_source(src: &str, blank_literals: bool) -> String {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        /// A string or char literal, closed by the given quote.
        Quoted(char),
        RawStr(usize),
    }
    let literal = |buf: &mut String, c: char| {
        if blank_literals {
            push_blank(buf, c);
        } else {
            buf.push(c);
        }
    };
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') || next == Some('*') => {
                    st = if next == Some('/') {
                        St::LineComment
                    } else {
                        St::BlockComment(1)
                    };
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Quoted('"');
                    literal(&mut code, c);
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // Consume the prefix (r, br) and hashes up to the quote.
                    let mut j = i;
                    while chars.get(j) == Some(&'b') || chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    for &p in &chars[i..=j] {
                        literal(&mut code, p);
                    }
                    st = St::RawStr(hashes);
                    i = j + 1;
                    continue;
                }
                '\'' => {
                    // Distinguish char literals from lifetimes: 'x' or '\..'.
                    literal(&mut code, c);
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        st = St::Quoted('\'');
                    }
                    // else: lifetime tick; the name stays as code.
                }
                _ => code.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                }
                push_blank(&mut code, c);
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                push_blank(&mut code, c);
            }
            St::Quoted(quote) => {
                literal(&mut code, c);
                if c == '\\' {
                    // Skip the escaped character.
                    if let Some(n) = next {
                        literal(&mut code, n);
                    }
                    i += 2;
                    continue;
                }
                if c == quote {
                    st = St::Code;
                }
            }
            St::RawStr(hashes) => {
                literal(&mut code, c);
                if c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                    for _ in 0..hashes {
                        literal(&mut code, '#');
                    }
                    st = St::Code;
                    i += 1 + hashes;
                    continue;
                }
            }
        }
        i += 1;
    }
    code
}

/// Is position `i` the start of a raw (byte) string literal: `r"`, `r#"`,
/// `br"`, `br#"` — and not just an identifier containing `r`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

// ---------------------------------------------------------------------------
// Test-region detection: byte ranges of `#[test]` / `#[cfg(test)]` items.
// ---------------------------------------------------------------------------

pub(crate) fn find_test_regions(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut regions = Vec::new();
    let mut depth: i64 = 0;
    let mut pending: Option<i64> = None;
    let mut open: Vec<i64> = Vec::new(); // depths at which a test region opened
    let mut region_start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'#' if bytes.get(i + 1) == Some(&b'[') => {
                // Read the attribute up to its matching ']'.
                let mut j = i + 2;
                let mut brackets = 1;
                while j < bytes.len() && brackets > 0 {
                    match bytes[j] {
                        b'[' => brackets += 1,
                        b']' => brackets -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let attr = &code[i + 2..j.saturating_sub(1).max(i + 2)];
                if attr_marks_test(attr) {
                    pending = Some(depth);
                }
                i = j;
                continue;
            }
            b'{' => {
                if pending == Some(depth) {
                    if open.is_empty() {
                        region_start = i;
                    }
                    open.push(depth);
                    pending = None;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if open.last() == Some(&depth) {
                    open.pop();
                    if open.is_empty() {
                        regions.push((region_start, i + 1));
                    }
                }
            }
            b';' if pending == Some(depth) => {
                pending = None;
            }
            _ => {}
        }
        i += 1;
    }
    if !open.is_empty() {
        regions.push((region_start, bytes.len()));
    }
    regions
}

/// Does any of the half-open byte `regions` contain `off`?
pub(crate) fn in_regions(regions: &[(usize, usize)], off: usize) -> bool {
    regions.iter().any(|&(s, e)| off >= s && off < e)
}

/// Does an attribute body mark a test-only item? True for `test`,
/// `cfg(test)` and `cfg(all(.., test, ..))`; false for every attribute
/// whose item also compiles outside tests (`cfg(not(test))`,
/// `cfg(any(test, ..))`, `cfg_attr(test, ..)`).
pub(crate) fn attr_marks_test(attr: &str) -> bool {
    let t: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
    t == "test"
        || t.strip_prefix("cfg(")
            .and_then(|rest| rest.strip_suffix(')'))
            .is_some_and(cfg_requires_test)
}

/// Does a `cfg` predicate (whitespace removed) hold only under `test`?
fn cfg_requires_test(pred: &str) -> bool {
    if pred == "test" {
        return true;
    }
    let Some(args) = pred
        .strip_prefix("all(")
        .and_then(|rest| rest.strip_suffix(')'))
    else {
        return false;
    };
    let mut depth = 0usize;
    let mut start = 0;
    for (i, b) in args.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                if cfg_requires_test(&args[start..i]) {
                    return true;
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    cfg_requires_test(&args[start..])
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_of(code: &str, offset: usize) -> usize {
    code.as_bytes()[..offset.min(code.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// All offsets of `token` in `code` at identifier boundaries (the char
/// before the token's first ident char must not be an ident char).
fn find_token(code: &str, token: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let first = token.as_bytes()[0];
        let boundary = if is_ident_byte(first) {
            at == 0 || !is_ident_byte(bytes[at - 1])
        } else {
            true
        };
        if boundary {
            found.push(at);
        }
        start = at + token.len().max(1);
    }
    found
}

// ---------------------------------------------------------------------------
// float-ord: NaN-safe float ordering.
// ---------------------------------------------------------------------------

fn check_float_ord(label: &str, code: &str, tests: &[(usize, usize)], out: &mut Vec<Diagnostic>) {
    for off in find_token(code, "partial_cmp") {
        if in_regions(tests, off) {
            continue;
        }
        out.push(Diagnostic {
            file: label.to_string(),
            line: line_of(code, off),
            rule: Rule::FloatOrd,
            message: "`partial_cmp` is NaN-unsafe: use `f64::total_cmp` (NaN sorts last, \
                      deterministically)"
                .to_string(),
        });
    }
    for method in ["sort_by", "sort_unstable_by", "max_by", "min_by"] {
        let needle = format!(".{method}(");
        for off in find_token(code, &needle) {
            if in_regions(tests, off) {
                continue;
            }
            let open = off + needle.len() - 1;
            let Some(close) = matching_paren(code, open) else {
                continue;
            };
            let span = &code[open..close];
            // Only a call to a total order counts: naming `Ordering` does
            // not, since a comparator built from `<`/`>` on floats returns
            // `Ordering` values and is still NaN-unsafe.
            if !span.contains("total_cmp") && !span.contains(".cmp(") {
                out.push(Diagnostic {
                    file: label.to_string(),
                    line: line_of(code, off),
                    rule: Rule::FloatOrd,
                    message: format!(
                        "`{method}` comparator does not use `total_cmp`/`cmp`: NaN-unsafe \
                         and nondeterministic on poisoned input"
                    ),
                });
            }
        }
    }
}

/// Offset of the `)` matching the `(` at `open`.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// raw-haversine: pairwise distances come from the geometry cache.
// ---------------------------------------------------------------------------

/// Rejects direct `haversine_km` calls in the model-fitting crates, and
/// per-element `haversine_km` loops in the batch-kernel crates.
///
/// In [`GEOMETRY_CACHE_CRATES`] every call flags: `PairGeometry` builds
/// the full pairwise triangle once and shares it; a scalar call in
/// `models` or `epidemic` library code reintroduces the per-pair
/// transcendental cost on the hot path and bypasses the
/// `cache/pairgeo/hits` accounting.
///
/// In [`BATCH_KERNEL_CRATES`] only calls inside `for`/`while`/`loop`
/// bodies flag — per-element loops belong on `TrigPoint::distance_km` —
/// while one-off pair measurements stay legal. Longer identifiers that
/// merely start with `haversine_km` never flag.
///
/// Test code may call anything freely — the equality fixtures compare
/// the cache and `TrigPoint` against exactly these scalar loops.
fn check_raw_haversine(
    label: &str,
    crate_name: &str,
    code: &str,
    tests: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let cache_crate = GEOMETRY_CACHE_CRATES.contains(&crate_name);
    let loops = if cache_crate {
        Vec::new()
    } else {
        loop_body_regions(code)
    };
    let bytes = code.as_bytes();
    for off in find_token(code, "haversine_km") {
        if in_regions(tests, off) {
            continue;
        }
        if cache_crate {
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::RawHaversine,
                message: "`haversine_km` on the model-fitting hot path: take distances from \
                          `tweetmob_geo::PairGeometry` (build once, share the triangle) so \
                          transcendentals are not recomputed per pair"
                    .to_string(),
            });
            continue;
        }
        // Batch-kernel arm. A longer identifier (such as a test-only
        // `_direct` reference) is not a scalar call.
        let end = off + "haversine_km".len();
        if bytes.get(end).is_some_and(|&b| is_ident_byte(b)) {
            continue;
        }
        if loops.iter().any(|&(s, e)| off > s && off < e) {
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::RawHaversine,
                message: "per-element `haversine_km` loop on a batch path: build a \
                          `tweetmob_geo::TrigPoint` per point and call `distance_km`, so \
                          each point's trigonometry is computed once outside the loop"
                    .to_string(),
            });
        }
    }
}

/// Byte ranges (open brace → matching close brace) of every
/// `for`/`while`/`loop` body in stripped code, for the batch-path arm of
/// [`check_raw_haversine`]. `impl Trait for Type { … }` is excluded by
/// requiring an `in` keyword between a `for` and its opening brace (real
/// `for` loops always have one; an impl header never does), which also
/// skips higher-ranked `for<'a>` bounds. An unclosed body (truncated
/// file) extends to end of input.
fn loop_body_regions(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    // `find_token` checks the left identifier boundary only; keywords
    // need the right side checked too (`format!` contains `for`).
    let keyword_sites = |tok: &str| -> Vec<usize> {
        find_token(code, tok)
            .into_iter()
            .filter(|&at| !bytes.get(at + tok.len()).is_some_and(|&b| is_ident_byte(b)))
            .collect()
    };
    let mut regions = Vec::new();
    for (tok, needs_in) in [("for", true), ("while", false), ("loop", false)] {
        for at in keyword_sites(tok) {
            let Some(open_rel) = code[at..].find('{') else {
                continue;
            };
            let open = at + open_rel;
            if needs_in
                && !find_token(&code[at..open], "in")
                    .iter()
                    .any(|&rel| !bytes.get(at + rel + 2).is_some_and(|&b| is_ident_byte(b)))
            {
                continue;
            }
            let mut depth = 0usize;
            let mut close = code.len();
            for (i, &b) in bytes[open..].iter().enumerate() {
                match b {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            close = open + i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            regions.push((open, close));
        }
    }
    regions
}

// ---------------------------------------------------------------------------
// Reporting helpers used by the binary.
// ---------------------------------------------------------------------------

/// Formats findings grouped per rule with a trailing summary, matching the
/// binary's output.
#[must_use]
pub fn render_report(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for d in diagnostics {
        *per_rule.entry(d.rule.name()).or_insert(0) += 1;
    }
    if diagnostics.is_empty() {
        out.push_str("tweetmob-lint: workspace clean\n");
    } else {
        let breakdown: Vec<String> = per_rule
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        out.push_str(&format!(
            "tweetmob-lint: {} finding(s) ({})\n",
            diagnostics.len(),
            breakdown.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints one in-memory file through [`lint_files`].
    fn lint(label: &str, crate_name: &str, kind: FileKind, source: &str) -> Vec<Diagnostic> {
        lint_files(&[SourceFile {
            label: label.to_string(),
            crate_name: crate_name.to_string(),
            kind,
            source: source.to_string(),
        }])
    }

    fn lint_lib(src: &str) -> Vec<Diagnostic> {
        lint("fixture.rs", "tweetmob-stats", FileKind::Library, src)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    // -- float-ord ---------------------------------------------------------

    #[test]
    fn float_ord_rejects_partial_cmp_and_raw_comparators() {
        let bad = "fn f(v: &mut Vec<f64>) {\n    \
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let d = lint_lib(bad);
        // Both the `partial_cmp` call and the comparator that never
        // reaches a total order fire.
        assert_eq!(rules(&d), vec![Rule::FloatOrd, Rule::FloatOrd], "{d:?}");
        assert!(d.iter().all(|d| d.line == 2));
    }

    #[test]
    fn float_ord_rejects_less_than_comparator() {
        let bad = "fn best(xs: &[f64]) -> Option<&f64> {\n    \
                   xs.iter().max_by(|a, b| if a < b { std::cmp::Ordering::Less } \
                   else { std::cmp::Ordering::Greater })\n}\n";
        // Returning `Ordering` values does not make `<` a total order.
        let worse = "fn f(v: &mut [f64]) { v.sort_by(|a, b| b.total_cmp(a)); }\n\
                     fn g(v: &mut [(f64, u8)]) { v.sort_by(|a, b| a.1.cmp(&b.1)); }\n";
        assert!(lint_lib(worse).is_empty());
        let naked = "fn h(xs: &[f64]) -> Option<&f64> {\n    \
                     xs.iter().max_by(|a, b| panicky(a, b))\n}\n";
        let d = lint_lib(naked);
        assert_eq!(rules(&d), vec![Rule::FloatOrd]);
        assert_eq!(rules(&lint_lib(bad)), vec![Rule::FloatOrd]);
    }

    #[test]
    fn float_ord_accepts_total_cmp() {
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }\n\
                    fn g(xs: &[f64]) -> Option<&f64> {\n    \
                    xs.iter().max_by(|a, b| a.total_cmp(b))\n}\n";
        assert!(lint_lib(good).is_empty());
    }

    #[test]
    fn float_ord_applies_to_binaries_too() {
        let bad = "fn main() { let mut v = vec![1.0]; v.sort_by(|a, b| cmpish(a, b)); }\n";
        let d = lint("bin/x.rs", "tweetmob-cli", FileKind::Binary, bad);
        assert_eq!(rules(&d), vec![Rule::FloatOrd]);
    }

    // -- raw-haversine -----------------------------------------------------

    #[test]
    fn raw_haversine_fires_in_model_fitting_crates_only() {
        let bad = "use tweetmob_geo::haversine_km;\n\
                   fn f(a: Point, b: Point) -> f64 { haversine_km(a, b) }\n";
        for crate_name in ["tweetmob-models", "tweetmob-epidemic"] {
            let d = lint("m.rs", crate_name, FileKind::Library, bad);
            assert_eq!(rules(&d), vec![Rule::RawHaversine, Rule::RawHaversine]);
            assert_eq!(d[0].line, 1);
            assert_eq!(d[1].line, 2);
            assert!(d[0].message.contains("PairGeometry"), "{}", d[0].message);
        }
        // The geo crate defines the function; core/synth route through the
        // cache by convention but keep the scalar path for construction.
        for crate_name in ["tweetmob-geo", "tweetmob-core", "tweetmob-synth"] {
            let d = lint("m.rs", crate_name, FileKind::Library, bad);
            assert!(d.is_empty(), "{d:?}");
        }
    }

    #[test]
    fn raw_haversine_ignores_tests_comments_and_binaries() {
        let good = "/// The cache agrees with the scalar haversine_km path.\n\
                    fn f() {}\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                    let _ = tweetmob_geo::haversine_km(a, b);\n    }\n}\n";
        let d = lint("m.rs", "tweetmob-models", FileKind::Library, good);
        assert!(d.is_empty(), "{d:?}");
        let bin = "fn main() { let _ = tweetmob_geo::haversine_km(a, b); }\n";
        let b = lint("bin/x.rs", "tweetmob-epidemic", FileKind::Binary, bin);
        assert!(b.is_empty(), "{b:?}");
    }

    #[test]
    fn raw_haversine_batch_arm_flags_loops_only() {
        let looped = "fn total(pts: &[Point], o: Point) -> f64 {\n    \
                      let mut sum = 0.0;\n    \
                      for p in pts {\n        \
                      sum += haversine_km(o, *p);\n    \
                      }\n    sum\n}\n";
        for crate_name in ["tweetmob-geo", "tweetmob-core"] {
            let d = lint("m.rs", crate_name, FileKind::Library, looped);
            assert_eq!(rules(&d), vec![Rule::RawHaversine], "{d:?}");
            assert_eq!(d[0].line, 4);
            assert!(d[0].message.contains("TrigPoint"), "{}", d[0].message);
        }
        // One-off pair measurements outside loops stay legal there...
        let pair = "fn f(a: Point, b: Point) -> f64 { haversine_km(a, b) }\n";
        let d = lint("m.rs", "tweetmob-geo", FileKind::Library, pair);
        assert!(d.is_empty(), "{d:?}");
        // ...and crates on neither list never see the rule.
        let d = lint("m.rs", "tweetmob-synth", FileKind::Library, looped);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn raw_haversine_batch_arm_covers_while_and_loop_bodies() {
        let src = "fn f(pts: &[Point], o: Point) -> f64 {\n    \
                   let mut s = 0.0;\n    let mut i = 0;\n    \
                   while i < pts.len() {\n        \
                   s += haversine_km(o, pts[i]);\n        i += 1;\n    }\n    \
                   loop {\n        \
                   s += haversine_km(o, pts[0]);\n        break;\n    }\n    s\n}\n";
        let d = lint("m.rs", "tweetmob-core", FileKind::Library, src);
        assert_eq!(
            rules(&d),
            vec![Rule::RawHaversine, Rule::RawHaversine],
            "{d:?}"
        );
        assert_eq!(d[0].line, 5);
        assert_eq!(d[1].line, 9);
    }

    #[test]
    fn raw_haversine_batch_arm_exempts_longer_names_and_impl_blocks() {
        // A longer identifier is another function, not a scalar call.
        let longer = "fn f(pts: &[Point], o: Point, out: &mut Vec<f64>) {\n    \
                      for p in pts {\n        \
                      out.push(haversine_km_direct(o, *p));\n    }\n}\n";
        let d = lint("m.rs", "tweetmob-geo", FileKind::Library, longer);
        assert!(d.is_empty(), "{d:?}");
        // `impl Trait for Type` is not a loop: a straight-line call in a
        // method body stays legal.
        let imp = "impl Distance for Ruler {\n    \
                   fn measure(&self, a: Point, b: Point) -> f64 {\n        \
                   haversine_km(a, b)\n    }\n}\n";
        let d = lint("m.rs", "tweetmob-core", FileKind::Library, imp);
        assert!(d.is_empty(), "{d:?}");
    }

    // -- scanner internals -------------------------------------------------

    #[test]
    fn stripper_blanks_strings_comments_and_char_literals() {
        let src = "let s = \"partial_cmp\"; // partial_cmp\n\
                   let c = '\\u{1F600}'; /* partial_cmp /* nested */ */ let d = 'x';\n";
        let code = strip_non_code(src);
        assert!(!code.contains("partial_cmp"));
        assert!(code.contains("let d"));
        assert_eq!(code.len(), src.len());
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> String { format!(r#\"partial_cmp \"q\"\"#) }\n\
                   fn g(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let d = lint_lib(src);
        assert!(d.iter().all(|d| d.line == 2), "{d:?}");
        // A lifetime's tick is blanked but its name stays code.
        assert!(strip_non_code(src).contains("fn f< a>(x: & a str)"));
    }

    // -- test regions ------------------------------------------------------

    /// A one-line body with exactly one `float-ord` finding.
    const SORT: &str = "fn live(a: f64) { let _ = a.partial_cmp(&2.0); }\n";

    #[test]
    fn test_regions_cover_nested_items_and_reset_after() {
        let src = format!("#[cfg(test)]\nmod tests {{\n    {SORT}}}\n{SORT}");
        let d = lint_lib(&src);
        assert_eq!(rules(&d), vec![Rule::FloatOrd], "{d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn cfg_test_on_a_use_statement_does_not_latch() {
        let src = format!("#[cfg(test)]\nuse std::fmt;\n{SORT}");
        let d = lint_lib(&src);
        assert_eq!(rules(&d), vec![Rule::FloatOrd], "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn only_test_only_cfgs_open_a_test_region() {
        // Items that compile only under `test` are exempt...
        for attr in [
            "test",
            "cfg(test)",
            "cfg(all(test, feature = \"x\"))",
            "cfg(all(unix, test))",
        ] {
            let src = format!("#[{attr}]\n{SORT}");
            assert!(
                lint_lib(&src).is_empty(),
                "#[{attr}] should mark a test item"
            );
        }
        // ...but code that also builds outside tests is linted.
        for attr in [
            "cfg(not(test))",
            "cfg(any(test, feature = \"x\"))",
            "cfg_attr(test, derive(Debug))",
            "cfg(all(unix, not(test)))",
        ] {
            let src = format!("#[{attr}]\n{SORT}");
            assert_eq!(
                rules(&lint_lib(&src)),
                vec![Rule::FloatOrd],
                "#[{attr}] must not hide the item"
            );
        }
    }

    #[test]
    fn render_report_summarises_per_rule() {
        let d = lint_lib(SORT);
        let report = render_report(&d);
        assert!(report.contains("fixture.rs:1: [float-ord]"));
        assert!(report.contains("1 finding(s) (float-ord: 1)"));
        assert!(render_report(&[]).contains("workspace clean"));
    }
}
