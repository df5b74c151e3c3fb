//! # tweetmob-lint
//!
//! A hand-rolled static-analysis pass over the workspace's `.rs` sources,
//! enforcing repo invariants that `clippy` cannot express. The paper's
//! headline results (Fig. 3 Pearson r = 0.816, Table II
//! Gravity-beats-Radiation) are pure numeric claims, so the reproduction
//! lives or dies on silent numeric and determinism bugs: a NaN leaking
//! into a correlation, a `HashMap` iteration reordering synthetic trips, a
//! panicking `unwrap()` deep in a fitting loop. These rules make the
//! conventions machine-enforced:
//!
//! * **`no-panic`** — no `unwrap()` / `expect()` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in non-test, non-binary
//!   library code. (`assert!` remains available for documented
//!   precondition checks.)
//! * **`float-ord`** — no NaN-unsafe float ordering: `partial_cmp` is
//!   rejected outright, and `sort_by` / `max_by` / `min_by` comparator
//!   closures must route through `total_cmp` (or integer `cmp`).
//! * **`determinism`** — no `thread_rng`, `from_entropy` or
//!   `SystemTime::now` anywhere in result-producing code, and no
//!   `HashMap` / `HashSet` in result-producing library crates (use
//!   `BTreeMap` / `BTreeSet`, or sort before iterating and annotate).
//! * **`lossy-cast`** — in the numeric crates (`stats`, `models`, `core`,
//!   `geo`), a float arithmetic expression cast straight to an integer
//!   type must state its rounding (`.floor()` / `.ceil()` / `.round()` /
//!   `.trunc()`) instead of relying on `as`'s silent truncation.
//! * **`par-layer`** — no raw `thread::spawn` / `thread::scope` /
//!   `crossbeam` outside `tweetmob-par`: every parallel stage dispatches
//!   on the shared worker pool so thread-count policy, gauges and the
//!   determinism contract live in one place.
//! * **`raw-haversine`** — no direct `haversine_km` calls in the
//!   model-fitting crates (`models`, `epidemic`): pairwise distances
//!   there route through the shared `PairGeometry` cache so the hot path
//!   never recomputes transcendentals and the `cache/pairgeo/*` metrics
//!   stay honest. In the batch-kernel crates (`geo`, `core`) the same
//!   rule bans per-element `haversine_km` calls inside `for`/`while`/
//!   `loop` bodies: column-shaped work there belongs on
//!   `haversine_km_batch`, which hoists the origin trigonometry out of
//!   the loop.
//!
//! On top of the per-file textual rules, four semantic rule families run
//! over a parsed workspace model (lexer → item parser → call graph; the
//! architecture and its soundness caveats are in DESIGN.md §12):
//!
//! * **`panic-path`** — walks the cross-file call graph from public
//!   library entry points and binary command handlers; any reachable
//!   panicking site in non-test library code is reported with its full
//!   call chain. Indexing sites join in under `--index-panics`.
//! * **`unit-measure`** — tracks degree/radian/km conventions through
//!   parameter and binding suffixes plus known conversions, flagging
//!   mixed-unit arithmetic, double conversions and trig-on-degrees in the
//!   geographic crates.
//! * **`determinism-taint`** — values derived from `Instant`, thread
//!   identity or unordered-container iteration may not flow into
//!   JSON/serialization sinks or formatting macros, except inside
//!   `tweetmob-obs` (the sanctioned `_ns`-redaction path).
//! * **`unused-allow`** — a `lint: allow` annotation that no longer
//!   suppresses anything (or names an unknown rule, or lacks its
//!   justification) is itself a finding, so escape hatches cannot rot.
//!
//! The workspace's public surface is additionally snapshotted into a
//! committed `API.lock` (see [`api_snapshot`] / [`diff_api`]); the binary's
//! `--check-api` mode fails on any uncommitted drift.
//!
//! Any finding can be suppressed with an explicit, justified annotation on
//! the same or the preceding line:
//!
//! ```text
//! // lint: allow(no-panic) — mutex poisoning is unrecoverable here
//! ```
//!
//! Annotations count only in real (non-doc) comments in non-test code;
//! `allow(no-panic)` and `allow(panic-path)` each silence both panic rules
//! at a site, since justifying the panic justifies every path through it.
//!
//! The engine is dependency-free (no `syn`): string literals, comments and
//! `#[cfg(test)]` regions are stripped (byte-preservingly) before any rule
//! fires, so fixtures in doc comments or test modules never trip the
//! linter.

mod api_lock;
mod model;
mod semantic;
mod taint;
mod units;

pub use api_lock::diff_api;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library output feeds paper results; `HashMap`/`HashSet`
/// are banned in their library paths (iteration order would leak into
/// figures and tables).
const RESULT_CRATES: &[&str] = &[
    "tweetmob",
    "tweetmob-geo",
    "tweetmob-stats",
    "tweetmob-data",
    "tweetmob-synth",
    "tweetmob-models",
    "tweetmob-core",
    "tweetmob-epidemic",
];

/// Crates where bare float→int `as` truncation is rejected.
const CAST_STRICT_CRATES: &[&str] = &[
    "tweetmob-stats",
    "tweetmob-models",
    "tweetmob-core",
    "tweetmob-geo",
];

/// Crates whose library code must take pairwise distances from the shared
/// `PairGeometry` cache rather than calling `haversine_km` per pair: these
/// sit on the model-fitting hot path, where a stray scalar call silently
/// reintroduces the O(n²) transcendental cost the cache exists to remove.
const GEOMETRY_CACHE_CRATES: &[&str] = &["tweetmob-models", "tweetmob-epidemic"];

/// Crates that own the columnar batch kernels. A scalar `haversine_km`
/// call inside a `for`/`while`/`loop` body here is a per-element
/// distance loop that belongs on `tweetmob_geo::haversine_km_batch`
/// (origin trig hoisted once, coordinate columns scanned contiguously);
/// one-off calls outside loops remain fine — these crates legitimately
/// measure single pairs during construction and queries.
const BATCH_KERNEL_CRATES: &[&str] = &["tweetmob-geo", "tweetmob-core"];

/// The ten rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panicking call in library code.
    NoPanic,
    /// NaN-unsafe float ordering.
    FloatOrd,
    /// Nondeterminism source.
    Determinism,
    /// Bare lossy float→int cast.
    LossyCast,
    /// Raw thread spawn outside the shared `tweetmob-par` worker pool.
    ParLayer,
    /// Scalar `haversine_km` call in a crate that must use the geometry cache.
    RawHaversine,
    /// Panicking site reachable from a public entry point (call-graph walk).
    PanicPath,
    /// Degree/radian/km convention violation in the geographic crates.
    UnitMeasure,
    /// Nondeterministic value flowing into serialized output.
    DeterminismTaint,
    /// A `lint: allow` annotation that suppresses nothing.
    UnusedAllow,
}

impl Rule {
    /// The rule's annotation name, as written in `// lint: allow(<name>)`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::FloatOrd => "float-ord",
            Rule::Determinism => "determinism",
            Rule::LossyCast => "lossy-cast",
            Rule::ParLayer => "par-layer",
            Rule::RawHaversine => "raw-haversine",
            Rule::PanicPath => "panic-path",
            Rule::UnitMeasure => "unit-measure",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Every rule name, for validating annotations.
    pub(crate) const ALL_NAMES: &'static [&'static str] = &[
        "no-panic",
        "float-ord",
        "determinism",
        "lossy-cast",
        "par-layer",
        "raw-haversine",
        "panic-path",
        "unit-measure",
        "determinism-taint",
        "unused-allow",
    ];

    /// Annotation names accepted for this rule. The two panic rules alias
    /// each other: a justified panic site is justified on every path.
    fn accepted_names(self) -> &'static [&'static str] {
        match self {
            Rule::NoPanic | Rule::PanicPath => &["no-panic", "panic-path"],
            Rule::FloatOrd => &["float-ord"],
            Rule::Determinism => &["determinism"],
            Rule::LossyCast => &["lossy-cast"],
            Rule::ParLayer => &["par-layer"],
            Rule::RawHaversine => &["raw-haversine"],
            Rule::UnitMeasure => &["unit-measure"],
            Rule::DeterminismTaint => &["determinism-taint"],
            Rule::UnusedAllow => &["unused-allow"],
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
    /// Path of the offending file (workspace-relative when produced by
    /// [`lint_workspace`]).
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
    /// Library code (crate root or module) — the scope of the panic rules.
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

/// Knobs for a lint run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Treat postfix indexing (`xs[i]`) as a panicking site in the
    /// `panic-path` walk. Off by default: the numeric kernels index
    /// heavily against invariant-checked bounds, and flooding them with
    /// findings would drown the signal — turn this on for targeted audits
    /// (`--index-panics`).
    pub index_panics: bool,
}

/// The one sort order every path shares: findings compare by
/// `(file, line, rule, message)`, so multi-rule output on a single line is
/// byte-stable across runs and entry points.
fn sort_findings(out: &mut [Diagnostic]) {
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
}

/// Runs the per-file textual rules (no suppression, no sorting).
fn textual_checks(
    label: &str,
    crate_name: &str,
    kind: FileKind,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    if kind.is_library() {
        check_no_panic(label, code, in_test, out);
    }
    check_float_ord(label, code, in_test, out);
    check_determinism(label, crate_name, kind, code, in_test, out);
    if kind.is_library() && CAST_STRICT_CRATES.contains(&crate_name) {
        check_lossy_cast(label, code, in_test, out);
    }
    if crate_name != "tweetmob-par" {
        check_par_layer(label, crate_name, code, in_test, out);
    }
    if kind.is_library()
        && (GEOMETRY_CACHE_CRATES.contains(&crate_name)
            || BATCH_KERNEL_CRATES.contains(&crate_name))
    {
        check_raw_haversine(label, crate_name, code, in_test, out);
    }
}

/// Lints one source file given its crate name (the `name` in the package's
/// `Cargo.toml`) and [`FileKind`]. `label` is used verbatim in
/// diagnostics. This is the core entry point the fixture tests drive.
///
/// Only the textual rules run here: the semantic passes (`panic-path`,
/// `unit-measure`, `determinism-taint`, `unused-allow`) need the workspace
/// model and run through [`lint_files`] / [`lint_workspace`].
#[must_use]
pub fn lint_source(label: &str, crate_name: &str, kind: FileKind, source: &str) -> Vec<Diagnostic> {
    let stripped = strip_non_code(source);
    let test_regions = find_test_regions(&stripped);
    let mut out = Vec::new();
    let in_test = |off: usize| test_regions.iter().any(|&(s, e)| off >= s && off < e);
    textual_checks(label, crate_name, kind, &stripped.code, &in_test, &mut out);
    let mut sup = Suppressor::collect(source, &stripped.comments, &test_regions);
    out.retain(|d| !sup.allows(d.line, d.rule));
    sort_findings(&mut out);
    out
}

/// Lints a loaded file set: textual rules per file, then the semantic
/// passes over the parsed workspace model, then `unused-allow` over every
/// annotation the earlier passes never consulted.
#[must_use]
pub fn lint_files(files: &[SourceFile], opts: &LintOptions) -> Vec<Diagnostic> {
    let (pfs, model) = model::parse_workspace(files);
    let mut sups: Vec<Suppressor> = pfs
        .iter()
        .map(|pf| Suppressor::collect(&pf.raw, &pf.comments, &pf.tests))
        .collect();
    let label_idx: BTreeMap<&str, usize> = pfs
        .iter()
        .enumerate()
        .map(|(i, pf)| (pf.label.as_str(), i))
        .collect();

    let mut out = Vec::new();
    for (idx, pf) in pfs.iter().enumerate() {
        let mut file_out = Vec::new();
        let in_test = |off: usize| pf.in_test(off);
        textual_checks(
            &pf.label,
            &pf.crate_name,
            pf.kind,
            &pf.code,
            &in_test,
            &mut file_out,
        );
        file_out.retain(|d| !sups[idx].allows(d.line, d.rule));
        out.append(&mut file_out);
    }

    let mut sem = Vec::new();
    semantic::check_panic_paths(
        &pfs,
        &model,
        opts.index_panics,
        |file, line| sups[file].allows(line, Rule::PanicPath),
        &mut sem,
    );
    units::check_units(&pfs, &model, &mut sem);
    taint::check_taint(&pfs, &model, &mut sem);
    sem.retain(|d| {
        label_idx
            .get(d.file.as_str())
            .is_none_or(|&i| !sups[i].allows(d.line, d.rule))
    });
    out.append(&mut sem);

    for (idx, sup) in sups.iter().enumerate() {
        sup.report_unused(&pfs[idx].label, &mut out);
    }
    sort_findings(&mut out);
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

/// Lints every workspace source file under `root` with default options,
/// returning all findings in the unified `(file, line, rule, message)`
/// order.
///
/// # Errors
///
/// Propagates I/O failures reading the source tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    lint_workspace_with(root, &LintOptions::default())
}

/// [`lint_workspace`] with explicit [`LintOptions`].
///
/// # Errors
///
/// Propagates I/O failures reading the source tree.
pub fn lint_workspace_with(root: &Path, opts: &LintOptions) -> io::Result<Vec<Diagnostic>> {
    let files = load_workspace(root)?;
    Ok(lint_files(&files, opts))
}

/// Renders the public-API snapshot (`API.lock` contents) of a loaded file
/// set. Deterministic: sorted, deduplicated, newline-terminated.
#[must_use]
pub fn api_snapshot(files: &[SourceFile]) -> String {
    let (_, model) = model::parse_workspace(files);
    api_lock::render_api(&model)
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
pub fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String, FileKind)>> {
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

pub(crate) struct Stripped {
    /// The source with every comment/string/char-literal byte replaced by a
    /// space (newlines preserved), so offsets map 1:1 to raw bytes and
    /// line numbers.
    pub(crate) code: String,
    /// The complement, restricted to *non-doc* comment content: bytes
    /// inside `//`/`/* */` comments keep their text, everything else
    /// (code, strings, doc comments) is blanked. Annotations are read from
    /// here, so a `lint: allow` quoted in a doc example or a string
    /// literal never registers.
    pub(crate) comments: String,
}

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

#[allow(clippy::too_many_lines)]
pub(crate) fn strip_non_code(src: &str) -> Stripped {
    #[derive(PartialEq)]
    enum St {
        Code,
        /// `doc`: `///` / `//!` content is excluded from the comments
        /// buffer (rules read doc text nowhere, and examples inside docs
        /// must not register annotations).
        LineComment {
            doc: bool,
        },
        BlockComment {
            depth: u32,
            doc: bool,
        },
        Str,
        RawStr(usize),
        CharLit,
    }
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    let doc = matches!(chars.get(i + 2), Some('/' | '!'));
                    st = St::LineComment { doc };
                    push_blank(&mut code, '/');
                    push_blank(&mut code, '/');
                    push_blank(&mut comments, '/');
                    push_blank(&mut comments, '/');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    let doc = matches!(chars.get(i + 2), Some('*' | '!'))
                        && chars.get(i + 3) != Some(&'/');
                    st = St::BlockComment { depth: 1, doc };
                    push_blank(&mut code, '/');
                    push_blank(&mut code, '*');
                    push_blank(&mut comments, '/');
                    push_blank(&mut comments, '*');
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    push_blank(&mut code, c);
                    push_blank(&mut comments, c);
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
                    for k in i..=j {
                        let ch = chars.get(k).copied().unwrap_or(' ');
                        push_blank(&mut code, ch);
                        push_blank(&mut comments, ch);
                    }
                    st = St::RawStr(hashes);
                    i = j + 1;
                    continue;
                }
                '\'' => {
                    // Distinguish char literals from lifetimes: 'x' or '\..'.
                    push_blank(&mut code, c);
                    push_blank(&mut comments, c);
                    if next == Some('\\') || chars.get(i + 2) == Some(&'\'') {
                        st = St::CharLit;
                    }
                    // else: lifetime tick; the name stays as code.
                }
                _ => {
                    code.push(c);
                    push_blank(&mut comments, c);
                }
            },
            St::LineComment { doc } => {
                if c == '\n' {
                    st = St::Code;
                    code.push('\n');
                    comments.push('\n');
                } else {
                    push_blank(&mut code, c);
                    if doc {
                        push_blank(&mut comments, c);
                    } else {
                        comments.push(c);
                    }
                }
            }
            St::BlockComment { depth, doc } => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment {
                        depth: depth + 1,
                        doc,
                    };
                    for ch in ['/', '*'] {
                        push_blank(&mut code, ch);
                        push_blank(&mut comments, ch);
                    }
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment {
                            depth: depth - 1,
                            doc,
                        }
                    };
                    for ch in ['*', '/'] {
                        push_blank(&mut code, ch);
                        push_blank(&mut comments, ch);
                    }
                    i += 2;
                    continue;
                }
                push_blank(&mut code, c);
                if doc || c == '\n' {
                    push_blank(&mut comments, c);
                } else {
                    comments.push(c);
                }
            }
            St::Str => {
                push_blank(&mut code, c);
                push_blank(&mut comments, c);
                if c == '\\' {
                    // Skip the escaped character.
                    if let Some(n) = next {
                        push_blank(&mut code, n);
                        push_blank(&mut comments, n);
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Code;
                }
            }
            St::RawStr(hashes) => {
                push_blank(&mut code, c);
                push_blank(&mut comments, c);
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            push_blank(&mut code, '#');
                            push_blank(&mut comments, '#');
                        }
                        st = St::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
            }
            St::CharLit => {
                push_blank(&mut code, c);
                push_blank(&mut comments, c);
                if c == '\\' {
                    if let Some(n) = next {
                        push_blank(&mut code, n);
                        push_blank(&mut comments, n);
                    }
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = St::Code;
                }
            }
        }
        i += 1;
    }
    Stripped { code, comments }
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

pub(crate) fn find_test_regions(stripped: &Stripped) -> Vec<(usize, usize)> {
    let code = stripped.code.as_bytes();
    let mut regions = Vec::new();
    let mut depth: i64 = 0;
    let mut pending: Option<i64> = None;
    let mut open: Vec<i64> = Vec::new(); // depths at which a test region opened
    let mut region_start = 0usize;
    let mut i = 0;
    while i < code.len() {
        match code[i] {
            b'#' if code.get(i + 1) == Some(&b'[') => {
                // Read the attribute up to its matching ']'.
                let mut j = i + 2;
                let mut brackets = 1;
                while j < code.len() && brackets > 0 {
                    match code[j] {
                        b'[' => brackets += 1,
                        b']' => brackets -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                let attr = &stripped.code[i + 2..j.saturating_sub(1).max(i + 2)];
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
    if let Some(&d) = open.first() {
        let _ = d;
        regions.push((region_start, code.len()));
    }
    regions
}

/// Does an attribute body mark a test item? True for `test`, `cfg(test)`,
/// `cfg(all(test, ...))` and tool test attributes; false for `cfg_attr`.
pub(crate) fn attr_marks_test(attr: &str) -> bool {
    let t = attr.trim();
    if t.starts_with("cfg_attr") {
        return false;
    }
    contains_word(t, "test")
}

/// Word-boundary substring search over identifier characters.
fn contains_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

pub(crate) fn line_of(code: &str, offset: usize) -> usize {
    code.as_bytes()[..offset.min(code.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

// ---------------------------------------------------------------------------
// Annotation escape hatch.
// ---------------------------------------------------------------------------

/// One `// lint: allow(<rule>) — <reason>` annotation found in a file's
/// (non-doc) comments.
struct Annotation {
    /// 1-based line the annotation sits on.
    line: usize,
    /// The rule name between the parentheses, verbatim.
    rule: String,
    /// Whether a justification follows (a dash then prose).
    has_reason: bool,
    /// Inside a `#[cfg(test)]`/`#[test]` region (never consulted: rules
    /// skip test code, so such annotations are inert and exempt from
    /// `unused-allow` rather than forced out of test helpers).
    in_test: bool,
    /// Whether any finding consulted and matched this annotation.
    used: bool,
}

/// Per-file suppression state. Collects every annotation once, then every
/// rule pass consults [`Suppressor::allows`] — which marks annotations as
/// used, so the leftover set drives the `unused-allow` rule.
struct Suppressor {
    annotations: Vec<Annotation>,
    /// Per raw line (0-based): does the line hold only a `//` comment?
    /// (Contiguity test for the annotate-above form.)
    comment_line: Vec<bool>,
}

impl Suppressor {
    /// Scans the comments layer of a stripped file for annotations.
    fn collect(raw: &str, comments: &str, tests: &[(usize, usize)]) -> Self {
        let comment_line = raw
            .lines()
            .map(|l| l.trim_start().starts_with("//"))
            .collect();
        let mut annotations = Vec::new();
        let mut line_start = 0usize;
        for (line_no, text) in comments.lines().enumerate() {
            for at in find_token(text, "lint: allow(") {
                let rest = &text[at + "lint: allow(".len()..];
                let Some(close) = rest.find(')') else {
                    continue;
                };
                let rule = rest[..close].trim().to_string();
                let after = &rest[close + 1..];
                let has_reason = after
                    .find(['—', '–', '-'])
                    .is_some_and(|dash| after[dash..].chars().skip(1).any(char::is_alphanumeric));
                let off = line_start + at;
                annotations.push(Annotation {
                    line: line_no + 1,
                    rule,
                    has_reason,
                    in_test: tests.iter().any(|&(s, e)| off >= s && off < e),
                    used: false,
                });
            }
            line_start += text.len() + 1;
        }
        Suppressor {
            annotations,
            comment_line,
        }
    }

    /// True when a valid annotation for `rule` covers `line` (same line,
    /// or the contiguous `//` comment block immediately above). Marks the
    /// matching annotation used.
    fn allows(&mut self, line: usize, rule: Rule) -> bool {
        let names = rule.accepted_names();
        // Candidate lines: the finding's own, then each line of the
        // comment block above it.
        let mut candidates = vec![line];
        let mut above = line.saturating_sub(1); // 1-based line above
        while above >= 1 {
            let is_comment = self.comment_line.get(above - 1).copied().unwrap_or(false);
            if !is_comment {
                break;
            }
            candidates.push(above);
            above -= 1;
        }
        for ann in &mut self.annotations {
            // A reasonless annotation never suppresses (and stays unused,
            // so `unused-allow` points at it).
            if candidates.contains(&ann.line)
                && names.contains(&ann.rule.as_str())
                && ann.has_reason
            {
                ann.used = true;
                return true;
            }
        }
        false
    }

    /// Emits an `unused-allow` finding for every annotation in non-test
    /// code that no pass consumed.
    fn report_unused(&self, label: &str, out: &mut Vec<Diagnostic>) {
        for ann in &self.annotations {
            if ann.used || ann.in_test {
                continue;
            }
            let message = if !Rule::ALL_NAMES.contains(&ann.rule.as_str()) {
                format!(
                    "`lint: allow({})` names an unknown rule — known rules: {}",
                    ann.rule,
                    Rule::ALL_NAMES.join(", ")
                )
            } else if !ann.has_reason {
                format!(
                    "`lint: allow({})` lacks a justification: append `— <reason>` \
                     (an unexplained escape hatch suppresses nothing)",
                    ann.rule
                )
            } else {
                format!(
                    "stale `lint: allow({})`: no `{}` finding here any more — delete the \
                     annotation so the escape hatch does not outlive its reason",
                    ann.rule, ann.rule
                )
            };
            out.push(Diagnostic {
                file: label.to_string(),
                line: ann.line,
                rule: Rule::UnusedAllow,
                message,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1: no panicking calls in library code.
// ---------------------------------------------------------------------------

fn check_no_panic(
    label: &str,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    const TOKENS: &[(&str, &str)] = &[
        (
            ".unwrap()",
            "use `?`, a default, or a documented `expect` with an annotation",
        ),
        (
            ".expect(",
            "return an error instead, or annotate with the invariant that holds",
        ),
        (
            "panic!",
            "return an error; panics abort entire experiment pipelines",
        ),
        (
            "unreachable!",
            "make the unreachable state unrepresentable, or annotate why it cannot occur",
        ),
        ("todo!", "finish the implementation before merging"),
        ("unimplemented!", "finish the implementation before merging"),
    ];
    for &(tok, fix) in TOKENS {
        for off in find_token(code, tok) {
            // `.expect(` must not match `.expect_err(`.
            if tok == ".expect(" && code[off..].starts_with(".expect_err(") {
                continue;
            }
            if in_test(off) {
                continue;
            }
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::NoPanic,
                message: format!("`{}` in library code: {fix}", tok.trim_matches('.')),
            });
        }
    }
}

/// All offsets of `token` in `code` at identifier boundaries (the char
/// before the token's first ident char must not be an ident char).
pub(crate) fn find_token(code: &str, token: &str) -> Vec<usize> {
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
// Rule 2: NaN-safe float ordering.
// ---------------------------------------------------------------------------

fn check_float_ord(
    label: &str,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for off in find_token(code, "partial_cmp") {
        if in_test(off) {
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
            if in_test(off) {
                continue;
            }
            let open = off + needle.len() - 1;
            let Some(close) = matching_paren(code, open) else {
                continue;
            };
            let span = &code[open..close];
            let safe = span.contains("total_cmp")
                || span.contains(".cmp(")
                || span.contains("cmp::")
                || span.contains("Ordering");
            // Comparator closures built from `<`/`>` on floats are the
            // NaN-unsafe pattern; any raw comparison inside the span that
            // never reaches a total order is rejected.
            if !safe {
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
// Rule 3: determinism.
// ---------------------------------------------------------------------------

fn check_determinism(
    label: &str,
    crate_name: &str,
    kind: FileKind,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    const TOKENS: &[(&str, &str)] = &[
        (
            "thread_rng",
            "seed a `SplitMix64` from the experiment config instead",
        ),
        ("from_entropy", "seed from the experiment config instead"),
        ("SystemTime::now", "thread the timestamp in as data"),
    ];
    for &(tok, fix) in TOKENS {
        for off in find_token(code, tok) {
            if in_test(off) {
                continue;
            }
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::Determinism,
                message: format!("`{tok}` makes results irreproducible: {fix}"),
            });
        }
    }
    // `Instant::now` is scoped, not banned outright: `tweetmob-obs` exists
    // to own the monotonic clock (span timers whose durations never feed a
    // result-bearing field). Everywhere else must route timing through it.
    if crate_name != "tweetmob-obs" {
        for off in find_token(code, "Instant::now") {
            if in_test(off) {
                continue;
            }
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::Determinism,
                message: "`Instant::now` outside `tweetmob-obs`: wrap the stage in \
                          `tweetmob_obs::span!` so timing stays out of results"
                    .to_string(),
            });
        }
    }
    if kind.is_library() && RESULT_CRATES.contains(&crate_name) {
        for tok in ["HashMap", "HashSet"] {
            for off in find_token(code, tok) {
                if in_test(off) {
                    continue;
                }
                out.push(Diagnostic {
                    file: label.to_string(),
                    line: line_of(code, off),
                    rule: Rule::Determinism,
                    message: format!(
                        "`{tok}` in a result-producing library path: iteration order is \
                         nondeterministic — use `BTree{}` or sort before iterating (annotate \
                         if provably order-independent)",
                        &tok[4..]
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: lossy float→int casts.
// ---------------------------------------------------------------------------

const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

fn check_lossy_cast(
    label: &str,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for off in find_token(code, " as ") {
        if in_test(off) {
            continue;
        }
        let after = &code[off + 4..];
        let ty_len = after
            .char_indices()
            .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(after.len(), |(i, _)| i);
        let ty = &after[..ty_len];
        if !INT_TYPES.contains(&ty) {
            continue;
        }
        if cast_source_is_unrounded_float(code, off) {
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::LossyCast,
                message: format!(
                    "float arithmetic cast straight to `{ty}`: `as` truncates toward zero \
                     silently — state the rounding with `.floor()`/`.ceil()`/`.round()`/\
                     `.trunc()` first, or annotate"
                ),
            });
        }
    }
}

/// Walks the postfix chain ending just before ` as `: if any link is an
/// explicit rounding call the cast is fine; otherwise the cast is flagged
/// when the chain shows float evidence (a float literal, or `*`//`/`
/// arithmetic inside a directly-cast parenthesized expression).
fn cast_source_is_unrounded_float(code: &str, as_off: usize) -> bool {
    const ROUNDING: &[&str] = &["floor", "ceil", "round", "trunc"];
    let bytes = code.as_bytes();
    let mut end = as_off; // exclusive end of the expression
    let mut float_evidence = false;
    loop {
        while end > 0 && (bytes[end - 1] as char).is_whitespace() {
            end -= 1;
        }
        if end == 0 {
            return false;
        }
        match bytes[end - 1] {
            b')' => {
                let Some(open) = matching_paren_rev(code, end - 1) else {
                    return false;
                };
                let span = &code[open + 1..end - 1];
                if has_float_literal(span) || span.contains('/') || span.contains('*') {
                    float_evidence = true;
                }
                // Is this parenthesis a call `name(...)`?
                let mut name_end = open;
                while name_end > 0 && (bytes[name_end - 1] as char).is_whitespace() {
                    name_end -= 1;
                }
                let mut name_start = name_end;
                while name_start > 0 && is_ident_byte(bytes[name_start - 1]) {
                    name_start -= 1;
                }
                let name = &code[name_start..name_end];
                if ROUNDING.contains(&name) {
                    return false; // explicit rounding anywhere in the chain
                }
                if name.is_empty() {
                    // A plain parenthesized expression `(...)`: the chain
                    // ends here.
                    return float_evidence;
                }
                // A call: keep walking if it is a method (`.name(`),
                // otherwise (free function) stop.
                let mut before = name_start;
                while before > 0 && (bytes[before - 1] as char).is_whitespace() {
                    before -= 1;
                }
                if before > 0 && bytes[before - 1] == b'.' {
                    end = before - 1;
                    continue;
                }
                return float_evidence;
            }
            b'0'..=b'9' => {
                // Numeric literal: scan it; a '.' makes it float.
                let mut start = end;
                while start > 0 && (is_ident_byte(bytes[start - 1]) || bytes[start - 1] == b'.') {
                    start -= 1;
                }
                let lit = &code[start..end];
                return has_float_literal(lit) || float_evidence;
            }
            _ => {
                // Identifier, index, field access: type unknown — a bare
                // name gives no evidence, whatever accumulated before it.
                return false;
            }
        }
    }
}

/// Offset of the `(` matching the `)` at `close`.
fn matching_paren_rev(code: &str, close: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        match bytes[i] {
            b')' => depth += 1,
            b'(' => {
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

/// Does the fragment contain a float literal (`1.0`, `0.5`, `1.`)?
/// Field/method accesses (`self.nx`, `2.max`) and ranges (`0..9`) do not
/// count.
fn has_float_literal(fragment: &str) -> bool {
    let bytes = fragment.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'.' {
            continue;
        }
        let digit_before = i > 0 && bytes[i - 1].is_ascii_digit();
        if !digit_before {
            continue;
        }
        // Exclude ranges `0..` and method calls on integers `2.max(..)`.
        match bytes.get(i + 1) {
            Some(&n) if n.is_ascii_digit() => return true,
            Some(&b'.') => continue, // range
            Some(&n) if n.is_ascii_alphabetic() || n == b'_' => continue, // method/field
            _ => return true,        // `1.` at end or before an operator
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule 5: parallel execution stays on the shared pool.
// ---------------------------------------------------------------------------

/// Raw-thread tokens sanctioned per crate, narrower than a blanket
/// exemption. `tweetmob-serve` may `thread::spawn` — its accept/worker
/// pool is I/O concurrency over an immutable `Arc<ModelBundle>` (no
/// chunk order to keep deterministic, no compute to route through the
/// shared pool) — but `thread::scope` and `crossbeam` there still flag:
/// scoped borrows are the shape of data-parallel compute, which belongs
/// in `tweetmob-par`.
const PAR_SANCTIONED: &[(&str, &[&str])] = &[("tweetmob-serve", &["thread::spawn"])];

/// Rejects raw thread spawns outside `tweetmob-par`. The shared pool is
/// where thread-count resolution (`TWEETMOB_THREADS`, overrides), the
/// `par/<stage>/*` gauges and the chunk-order determinism contract live;
/// a bespoke `thread::scope` elsewhere silently opts out of all three.
/// Test code may spawn freely (e.g. to probe concurrency itself), and
/// [`PAR_SANCTIONED`] grants named crates specific tokens.
fn check_par_layer(
    label: &str,
    crate_name: &str,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    const TOKENS: &[&str] = &["thread::spawn", "thread::scope", "crossbeam"];
    let sanctioned: &[&str] = PAR_SANCTIONED
        .iter()
        .find(|(name, _)| *name == crate_name)
        .map_or(&[], |(_, tokens)| tokens);
    for &tok in TOKENS {
        if sanctioned.contains(&tok) {
            continue;
        }
        for off in find_token(code, tok) {
            if in_test(off) {
                continue;
            }
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::ParLayer,
                message: format!(
                    "`{tok}` outside `tweetmob-par`: dispatch on \
                     `tweetmob_par::par_map_chunks`/`par_map_reduce` so thread policy, \
                     gauges and determinism stay centralised"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: pairwise distances come from the geometry cache.
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
/// bodies flag — column-shaped per-element loops belong on
/// `haversine_km_batch` — while one-off pair measurements stay legal.
/// Calls to the batch API itself (`haversine_km_batch*`) never flag.
///
/// Test code may call anything freely — the equality fixtures compare
/// the cache and the batch kernel against exactly these scalar loops.
fn check_raw_haversine(
    label: &str,
    crate_name: &str,
    code: &str,
    in_test: &dyn Fn(usize) -> bool,
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
        if in_test(off) {
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
        // Batch-kernel arm. A longer identifier (`haversine_km_batch`,
        // or its test-only `_direct` reference) is not a scalar call.
        let end = off + "haversine_km".len();
        if bytes.get(end).is_some_and(|&b| is_ident_byte(b)) {
            continue;
        }
        if loops.iter().any(|&(s, e)| off > s && off < e) {
            out.push(Diagnostic {
                file: label.to_string(),
                line: line_of(code, off),
                rule: Rule::RawHaversine,
                message: "per-element `haversine_km` loop on a batch path: hoist it onto \
                          `tweetmob_geo::haversine_km_batch` over the coordinate columns \
                          so the origin trigonometry is computed once outside the loop"
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

    fn lint_lib(src: &str) -> Vec<Diagnostic> {
        lint_source("fixture.rs", "tweetmob-stats", FileKind::Library, src)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    // -- no-panic ----------------------------------------------------------

    #[test]
    fn no_panic_fires_on_each_forbidden_call() {
        let bad = "fn f(x: Option<u8>) -> u8 {\n    let y = x.unwrap();\n    \
                   let z = x.expect(\"set\");\n    if y > z { panic!(\"no\"); }\n    \
                   match y { 0 => todo!(), 1 => unreachable!(), _ => y }\n}\n";
        let d = lint_lib(bad);
        assert_eq!(d.len(), 5, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::NoPanic));
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
        assert_eq!(d[2].line, 4);
    }

    #[test]
    fn no_panic_ignores_tests_strings_and_doc_comments() {
        let good = "/// Call `.unwrap()` if you must: panic!() is shown here.\n\
                    fn f() -> &'static str {\n    \"contains .unwrap() and panic!\"\n}\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                    Some(1).unwrap();\n    }\n}\n";
        assert!(lint_lib(good).is_empty());
    }

    #[test]
    fn no_panic_skips_binary_code() {
        let src = "fn main() { std::fs::read(\"x\").unwrap(); }\n";
        let d = lint_source("main.rs", "tweetmob-cli", FileKind::Binary, src);
        assert!(d.iter().all(|d| d.rule != Rule::NoPanic), "{d:?}");
    }

    #[test]
    fn no_panic_does_not_match_unwrap_or() {
        let good = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(3) }\n\
                    fn g(x: Result<u8, u8>) -> u8 { x.unwrap_or_else(|_| 4) }\n";
        assert!(lint_lib(good).is_empty());
    }

    #[test]
    fn no_panic_annotation_suppresses_with_reason() {
        let src = "fn f(m: std::sync::Mutex<u8>) -> u8 {\n    \
                   // lint: allow(no-panic) — poisoning is unrecoverable here\n    \
                   *m.lock().unwrap()\n}\n";
        assert!(lint_lib(src).is_empty());
        // Without a reason the annotation is invalid and the finding stays.
        let bare = src.replace(" — poisoning is unrecoverable here", "");
        assert_eq!(lint_lib(&bare).len(), 1);
        // An annotation for a different rule does not apply.
        let wrong = src.replace("allow(no-panic)", "allow(float-ord)");
        assert_eq!(lint_lib(&wrong).len(), 1);
    }

    // -- float-ord ---------------------------------------------------------

    #[test]
    fn float_ord_rejects_partial_cmp_and_raw_comparators() {
        let bad = "fn f(v: &mut Vec<f64>) {\n    \
                   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let d = lint_lib(bad);
        // partial_cmp + unwrap findings; the sort_by span itself is safe-by
        // -partial_cmp detection already reporting the real hazard.
        assert!(d.iter().any(|d| d.rule == Rule::FloatOrd), "{d:?}");
    }

    #[test]
    fn float_ord_rejects_less_than_comparator() {
        let bad = "fn best(xs: &[f64]) -> Option<&f64> {\n    \
                   xs.iter().max_by(|a, b| if a < b { std::cmp::Ordering::Less } \
                   else { std::cmp::Ordering::Greater })\n}\n";
        // `Ordering` appears in the span, so this one is treated as routed
        // through a total order; strip it to see the rejection.
        let worse = "fn f(v: &mut [f64]) { v.sort_by(|a, b| b.total_cmp(a)); }\n\
                     fn g(v: &mut [(f64, u8)]) { v.sort_by(|a, b| a.1.cmp(&b.1)); }\n";
        assert!(lint_lib(worse).is_empty());
        let naked = "fn h(xs: &[f64]) -> Option<&f64> {\n    \
                     xs.iter().max_by(|a, b| panicky(a, b))\n}\n";
        let d = lint_lib(naked);
        assert_eq!(rules(&d), vec![Rule::FloatOrd]);
        assert!(lint_lib(bad).is_empty());
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
        let d = lint_source("bin/x.rs", "tweetmob-bench", FileKind::Binary, bad);
        assert_eq!(rules(&d), vec![Rule::FloatOrd]);
    }

    // -- determinism -------------------------------------------------------

    #[test]
    fn determinism_rejects_ambient_entropy_and_clocks() {
        let bad = "fn f() {\n    let mut rng = rand::thread_rng();\n    \
                   let t = std::time::SystemTime::now();\n}\n";
        let d = lint_lib(bad);
        assert_eq!(rules(&d), vec![Rule::Determinism, Rule::Determinism]);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
    }

    #[test]
    fn determinism_rejects_hash_collections_in_result_crates() {
        let bad = "use std::collections::HashMap;\n\
                   fn f() -> HashMap<u8, u8> { HashMap::new() }\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, bad);
        assert_eq!(d.len(), 3, "{d:?}"); // use + return type + constructor
        assert!(d.iter().all(|d| d.rule == Rule::Determinism));
    }

    #[test]
    fn determinism_allows_hash_collections_outside_result_crates() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u8, u8> { HashMap::new() }\n";
        let d = lint_source("m.rs", "tweetmob-lint", FileKind::Library, src);
        assert!(d.is_empty(), "{d:?}");
        let e = lint_source("bin/x.rs", "tweetmob-core", FileKind::Binary, src);
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn determinism_scopes_instant_to_the_obs_crate() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n";
        // Allowed only inside tweetmob-obs — the crate that owns the clock.
        let ok = lint_source("span.rs", "tweetmob-obs", FileKind::Library, src);
        assert!(ok.is_empty(), "{ok:?}");
        // Forbidden in every other crate's library code...
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, src);
        assert_eq!(rules(&d), vec![Rule::Determinism]);
        assert_eq!(d[0].line, 2);
        assert!(
            d[0].message.contains("tweetmob_obs::span!"),
            "{}",
            d[0].message
        );
        // ...and in binaries (benches must time through the registry too).
        let bad_bin = "fn main() { let _ = std::time::Instant::now(); }\n";
        let b = lint_source("bin/x.rs", "tweetmob-bench", FileKind::Binary, bad_bin);
        assert_eq!(rules(&b), vec![Rule::Determinism]);
        // Test code may use Instant freely, as with the other clock rules.
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                       let _ = std::time::Instant::now();\n    }\n}\n";
        assert!(lint_source("m.rs", "tweetmob-core", FileKind::Library, in_test).is_empty());
    }

    #[test]
    fn determinism_accepts_btree_and_seeded_rngs() {
        let good = "use std::collections::BTreeMap;\n\
                    fn f(seed: u64) -> BTreeMap<u8, u8> { let _ = seed; BTreeMap::new() }\n";
        assert!(lint_source("m.rs", "tweetmob-core", FileKind::Library, good).is_empty());
    }

    // -- lossy-cast --------------------------------------------------------

    #[test]
    fn lossy_cast_rejects_bare_float_arithmetic_truncation() {
        let bad = "fn f(lon: f64, cell: f64) -> usize {\n    ((lon + 1.0) / cell) as usize\n}\n";
        let d = lint_lib(bad);
        assert_eq!(rules(&d), vec![Rule::LossyCast]);
        assert_eq!(d[0].line, 2);
        let literal = "fn g() -> i64 { 2.5 as i64 }\n";
        assert_eq!(rules(&lint_lib(literal)), vec![Rule::LossyCast]);
    }

    #[test]
    fn lossy_cast_accepts_explicit_rounding_and_integer_casts() {
        let good =
            "fn f(lon: f64, cell: f64) -> usize {\n    ((lon + 1.0) / cell).floor() as usize\n}\n\
                    fn g(h: f64) -> (usize, usize) { (h.floor() as usize, h.ceil() as usize) }\n\
                    fn h(n: usize) -> f64 { n as f64 }\n\
                    fn k(starts: &[u32], c: usize) -> usize { starts[c] as usize }\n\
                    fn m(i: usize) -> u32 { i as u32 }\n";
        assert!(lint_lib(good).is_empty());
    }

    #[test]
    fn lossy_cast_sees_rounding_through_a_chain() {
        let good = "fn f(x: f64) -> usize { (x / 2.0).floor().max(0.0) as usize }\n";
        assert!(lint_lib(good).is_empty(), "{:?}", lint_lib(good));
        let bad = "fn g(x: f64) -> usize { (x / 2.0).max(0.0) as usize }\n";
        assert_eq!(rules(&lint_lib(bad)), vec![Rule::LossyCast]);
    }

    #[test]
    fn lossy_cast_only_in_strict_crates() {
        let src = "fn f(x: f64) -> usize { (x / 2.0) as usize }\n";
        let d = lint_source("m.rs", "tweetmob-plot", FileKind::Library, src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lossy_cast_annotation_suppresses() {
        let src = "fn f(x: f64) -> usize {\n    \
                   // lint: allow(lossy-cast) — x is a trusted cell index in [0, n)\n    \
                   (x / 2.0) as usize\n}\n";
        assert!(lint_lib(src).is_empty());
    }

    // -- par-layer ---------------------------------------------------------

    #[test]
    fn par_layer_rejects_raw_thread_spawns_everywhere_but_par() {
        let bad = "fn f() {\n    std::thread::spawn(|| {});\n    \
                   std::thread::scope(|s| { let _ = s; });\n    \
                   crossbeam::scope(|s| { let _ = s; }).unwrap();\n}\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, bad);
        let par: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == Rule::ParLayer).collect();
        assert_eq!(par.len(), 3, "{d:?}");
        assert_eq!(par[0].line, 2);
        assert_eq!(par[1].line, 3);
        assert_eq!(par[2].line, 4);
        // Binaries must go through the pool too.
        let b = lint_source("bin/x.rs", "tweetmob-bench", FileKind::Binary, bad);
        assert_eq!(b.iter().filter(|d| d.rule == Rule::ParLayer).count(), 3);
    }

    #[test]
    fn par_layer_exempts_the_pool_crate_and_tests() {
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        let ok = lint_source("lib.rs", "tweetmob-par", FileKind::Library, src);
        assert!(ok.iter().all(|d| d.rule != Rule::ParLayer), "{ok:?}");
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                       std::thread::spawn(|| {}).join().unwrap();\n    }\n}\n";
        assert!(lint_source("m.rs", "tweetmob-core", FileKind::Library, in_test).is_empty());
    }

    #[test]
    fn par_layer_sanctions_serve_spawns_but_nothing_wider() {
        // The serving layer's accept/worker pool may `thread::spawn`...
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        let ok = lint_source("server.rs", "tweetmob-serve", FileKind::Library, spawn);
        assert!(ok.iter().all(|d| d.rule != Rule::ParLayer), "{ok:?}");
        // ...but scoped/crossbeam concurrency there still flags — that
        // is the shape of compute, which belongs in the shared pool.
        let scoped = "fn f() {\n    std::thread::scope(|s| { let _ = s; });\n    \
                      crossbeam::scope(|s| { let _ = s; }).unwrap();\n}\n";
        let d = lint_source("server.rs", "tweetmob-serve", FileKind::Library, scoped);
        assert_eq!(d.iter().filter(|d| d.rule == Rule::ParLayer).count(), 2, "{d:?}");
        // And the sanction is serve's alone: the same spawn elsewhere
        // keeps flagging.
        let other = lint_source("m.rs", "tweetmob-core", FileKind::Library, spawn);
        assert_eq!(other.iter().filter(|d| d.rule == Rule::ParLayer).count(), 1);
    }

    #[test]
    fn par_layer_allows_available_parallelism() {
        let src = "fn f() -> usize {\n    \
                   std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, src);
        assert!(d.iter().all(|d| d.rule != Rule::ParLayer), "{d:?}");
    }

    #[test]
    fn par_layer_annotation_suppresses() {
        let src = "fn f() {\n    \
                   // lint: allow(par-layer) — watchdog thread, not a compute stage\n    \
                   std::thread::spawn(|| {});\n}\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, src);
        assert!(d.iter().all(|d| d.rule != Rule::ParLayer), "{d:?}");
    }

    // -- raw-haversine -----------------------------------------------------

    #[test]
    fn raw_haversine_fires_in_model_fitting_crates_only() {
        let bad = "use tweetmob_geo::haversine_km;\n\
                   fn f(a: Point, b: Point) -> f64 { haversine_km(a, b) }\n";
        for crate_name in ["tweetmob-models", "tweetmob-epidemic"] {
            let d = lint_source("m.rs", crate_name, FileKind::Library, bad);
            assert_eq!(rules(&d), vec![Rule::RawHaversine, Rule::RawHaversine]);
            assert_eq!(d[0].line, 1);
            assert_eq!(d[1].line, 2);
            assert!(d[0].message.contains("PairGeometry"), "{}", d[0].message);
        }
        // The geo crate defines the function; core/synth route through the
        // cache by convention but keep the scalar path for construction.
        for crate_name in ["tweetmob-geo", "tweetmob-core", "tweetmob-synth"] {
            let d = lint_source("m.rs", crate_name, FileKind::Library, bad);
            assert!(d.iter().all(|d| d.rule != Rule::RawHaversine), "{d:?}");
        }
    }

    #[test]
    fn raw_haversine_ignores_tests_comments_and_binaries() {
        let good = "/// The cache agrees with the scalar haversine_km path.\n\
                    fn f() {}\n\
                    #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                    let _ = tweetmob_geo::haversine_km(a, b);\n    }\n}\n";
        let d = lint_source("m.rs", "tweetmob-models", FileKind::Library, good);
        assert!(d.is_empty(), "{d:?}");
        let bin = "fn main() { let _ = tweetmob_geo::haversine_km(a, b); }\n";
        let b = lint_source("bin/x.rs", "tweetmob-epidemic", FileKind::Binary, bin);
        assert!(b.iter().all(|d| d.rule != Rule::RawHaversine), "{b:?}");
    }

    #[test]
    fn raw_haversine_annotation_suppresses_with_reason() {
        let src = "fn f(a: Point, b: Point) -> f64 {\n    \
                   // lint: allow(raw-haversine) — one-off pair, no triangle to share\n    \
                   tweetmob_geo::haversine_km(a, b)\n}\n";
        let d = lint_source("m.rs", "tweetmob-models", FileKind::Library, src);
        assert!(d.is_empty(), "{d:?}");
        let bare = src.replace(" — one-off pair, no triangle to share", "");
        let d = lint_source("m.rs", "tweetmob-models", FileKind::Library, &bare);
        assert_eq!(rules(&d), vec![Rule::RawHaversine]);
    }

    #[test]
    fn raw_haversine_batch_arm_flags_loops_only() {
        let looped = "fn total(pts: &[Point], o: Point) -> f64 {\n    \
                      let mut sum = 0.0;\n    \
                      for p in pts {\n        \
                      sum += haversine_km(o, *p);\n    \
                      }\n    sum\n}\n";
        for crate_name in ["tweetmob-geo", "tweetmob-core"] {
            let d = lint_source("m.rs", crate_name, FileKind::Library, looped);
            assert_eq!(rules(&d), vec![Rule::RawHaversine], "{d:?}");
            assert_eq!(d[0].line, 4);
            assert!(
                d[0].message.contains("haversine_km_batch"),
                "{}",
                d[0].message
            );
        }
        // One-off pair measurements outside loops stay legal there...
        let pair = "fn f(a: Point, b: Point) -> f64 { haversine_km(a, b) }\n";
        let d = lint_source("m.rs", "tweetmob-geo", FileKind::Library, pair);
        assert!(d.is_empty(), "{d:?}");
        // ...and crates on neither list never see the rule.
        let d = lint_source("m.rs", "tweetmob-synth", FileKind::Library, looped);
        assert!(d.iter().all(|d| d.rule != Rule::RawHaversine), "{d:?}");
    }

    #[test]
    fn raw_haversine_batch_arm_covers_while_and_loop_bodies() {
        let src = "fn f(pts: &[Point], o: Point) -> f64 {\n    \
                   let mut s = 0.0;\n    let mut i = 0;\n    \
                   while i < pts.len() {\n        \
                   s += haversine_km(o, pts[i]);\n        i += 1;\n    }\n    \
                   loop {\n        \
                   s += haversine_km(o, pts[0]);\n        break;\n    }\n    s\n}\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, src);
        assert_eq!(rules(&d), vec![Rule::RawHaversine, Rule::RawHaversine], "{d:?}");
        assert_eq!(d[0].line, 5);
        assert_eq!(d[1].line, 9);
    }

    #[test]
    fn raw_haversine_batch_arm_exempts_the_batch_api_and_impl_blocks() {
        // Calling the batch kernel inside a loop IS the sanctioned shape.
        let batched = "fn f(chunks: &[Chunk], o: Point, out: &mut Vec<f64>) {\n    \
                       for c in chunks {\n        \
                       haversine_km_batch(o, &c.lats, &c.lons, out);\n    }\n}\n";
        let d = lint_source("m.rs", "tweetmob-geo", FileKind::Library, batched);
        assert!(d.is_empty(), "{d:?}");
        // `impl Trait for Type` is not a loop: a straight-line call in a
        // method body stays legal.
        let imp = "impl Distance for Ruler {\n    \
                   fn measure(&self, a: Point, b: Point) -> f64 {\n        \
                   haversine_km(a, b)\n    }\n}\n";
        let d = lint_source("m.rs", "tweetmob-core", FileKind::Library, imp);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn raw_haversine_batch_arm_annotation_suppresses() {
        let src = "fn reference(pts: &[Point], o: Point) -> f64 {\n    \
                   let mut sum = 0.0;\n    \
                   for p in pts {\n        \
                   // lint: allow(raw-haversine) — scalar reference the kernel is compared to\n        \
                   sum += haversine_km(o, *p);\n    }\n    sum\n}\n";
        let d = lint_source("m.rs", "tweetmob-geo", FileKind::Library, src);
        assert!(d.is_empty(), "{d:?}");
    }

    // -- scanner internals -------------------------------------------------

    #[test]
    fn stripper_blanks_strings_comments_and_char_literals() {
        let src = "let s = \"panic!()\"; // panic!()\nlet c = '\\u{1F600}'; /* .unwrap() */\n";
        let stripped = strip_non_code(src);
        assert!(!stripped.code.contains("panic"));
        assert!(!stripped.code.contains("unwrap"));
        assert_eq!(stripped.code.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> String { format!(r#\"panic!() \"quoted\"\"#) }\n\
                   fn g() { Some(1).unwrap(); }\n";
        let d = lint_lib(src);
        assert_eq!(rules(&d), vec![Rule::NoPanic]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn test_regions_cover_nested_items_and_reset_after() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() { Some(1).unwrap(); }\n}\n\
                   fn live() { Some(2).unwrap(); }\n";
        let d = lint_lib(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn cfg_test_on_a_use_statement_does_not_latch() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn live() { Some(2).unwrap(); }\n";
        let d = lint_lib(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn render_report_summarises_per_rule() {
        let d = lint_lib("fn f(x: Option<u8>) { x.unwrap(); }\n");
        let report = render_report(&d);
        assert!(report.contains("fixture.rs:1: [no-panic]"));
        assert!(report.contains("1 finding(s) (no-panic: 1)"));
        assert!(render_report(&[]).contains("workspace clean"));
    }
}
