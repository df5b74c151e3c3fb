//! Integration tests for the API snapshot and the finding sort order.
//!
//! These run `lint_files` and `api_snapshot` on in-memory fixtures (no
//! disk, no scratch dirs), which exercises exactly the path the binary
//! uses.

use tweetmob_lint::{
    api_snapshot, diff_api, lint_files, render_report, FileKind, Rule, SourceFile,
};

/// Crate-root doc line shared by fixtures.
const HEADER: &str = "//! Fixture.\n\n";

fn sf(label: &str, crate_name: &str, kind: FileKind, body: &str) -> SourceFile {
    SourceFile {
        label: label.to_string(),
        crate_name: crate_name.to_string(),
        kind,
        source: format!("{HEADER}{body}"),
    }
}

fn lint_one(crate_name: &str, body: &str) -> Vec<tweetmob_lint::Diagnostic> {
    let files = [sf(
        "crates/fix/src/lib.rs",
        crate_name,
        FileKind::LibRoot,
        body,
    )];
    lint_files(&files)
}

// ---------------------------------------------------------------------------
// API snapshot: generation and drift detection.
// ---------------------------------------------------------------------------

#[test]
fn api_snapshot_golden() {
    let body = "\
/// A public point.
pub struct P {
    /// Latitude, radians.
    pub lat_rad: f64,
    hidden: u8,
}

impl P {
    /// Public accessor.
    pub fn lat(&self) -> f64 {
        self.lat_rad
    }

    fn private_helper(&self) {}
}

/// Free function.
pub fn dist(a: &P, b: &P) -> f64 {
    (a.lat_rad - b.lat_rad).abs()
}

fn free_private() {}

/// A public tuple struct: the items after it are API too.
pub struct Id(pub u32);

/// Free function after a tuple struct.
pub fn after_tuple(id: Id) -> u32 {
    id.0
}
";
    // Two types of one module with a same-named associated const.
    let kinds = "\
/// One kind.
pub struct A;

impl A {
    /// Every A.
    pub const ALL: [A; 1] = [A];
}

/// Another kind.
pub struct B;

impl B {
    /// Every B.
    pub const ALL: [B; 1] = [B];
}
";
    let files = [
        sf(
            "crates/fix/src/lib.rs",
            "tweetmob-fixture",
            FileKind::LibRoot,
            body,
        ),
        sf(
            "crates/fix/src/kinds.rs",
            "tweetmob-fixture",
            FileKind::Library,
            kinds,
        ),
    ];
    let snap = api_snapshot(&files);
    let lines: Vec<&str> = snap.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        lines.contains(&"tweetmob-fixture fn P::lat pub fn lat(&self) -> f64"),
        "inherent method line, got:\n{snap}"
    );
    assert!(
        lines.contains(&"tweetmob-fixture fn dist pub fn dist(a: &P, b: &P) -> f64"),
        "free function line, got:\n{snap}"
    );
    assert!(
        lines.iter().any(|l| l.contains("struct P")),
        "struct line, got:\n{snap}"
    );
    assert!(
        lines.iter().any(|l| l.contains("field P.lat_rad")),
        "public field line, got:\n{snap}"
    );
    assert!(
        lines.contains(&"tweetmob-fixture fn after_tuple pub fn after_tuple(id: Id) -> u32"),
        "a function after a tuple struct, got:\n{snap}"
    );
    for ty in ["A", "B"] {
        let line = format!("tweetmob-fixture const kinds::{ty}::ALL pub const ALL: [{ty}; 1]");
        assert!(
            lines.contains(&line.as_str()),
            "an associated const is filed under its type, got:\n{snap}"
        );
    }
    for private in ["hidden", "private_helper", "free_private"] {
        assert!(
            !snap.contains(private),
            "`{private}` is not public API, got:\n{snap}"
        );
    }
    // Sorted and deterministic: regenerating yields identical bytes.
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "snapshot lines must be sorted");
    assert_eq!(snap, api_snapshot(&files));
}

#[test]
fn api_snapshot_renders_both_reexport_layouts_as_one_line() {
    let snap = |body: &str| {
        api_snapshot(&[sf(
            "crates/fix/src/lib.rs",
            "tweetmob-fixture",
            FileKind::LibRoot,
            body,
        )])
    };
    let one_line = snap("pub use scenario::{Timeline, run, ScenarioError};\n");
    let rustfmt = snap(
        "pub use scenario::{\n    run, ScenarioError,\n    Timeline,\n};\n\n/// Next item.\npub use a::b;\n",
    );
    let line = "tweetmob-fixture reexport  pub use scenario::{ScenarioError, Timeline, run};";
    assert!(one_line.lines().any(|l| l == line), "got:\n{one_line}");
    assert!(rustfmt.lines().any(|l| l == line), "got:\n{rustfmt}");
}

#[test]
fn editing_a_variant_field_doc_is_not_api_drift() {
    let snap = |doc: &str| {
        api_snapshot(&[sf(
            "crates/fix/src/lib.rs",
            "tweetmob-fixture",
            FileKind::LibRoot,
            &format!(
                "/// Errors.\npub enum E {{\n    /// A bad index.\n    Bad {{\n        /// {doc}\n        index: usize, /* inline */ len: usize,\n    }},\n}}\n"
            ),
        )])
    };
    let before = snap("The rejected index.");
    let after = snap("The index that was rejected // with a \"quote\".");
    assert!(diff_api(&before, &after).is_empty(), "{before}\n{after}");
    let line = "tweetmob-fixture variant E::Bad Bad { index: usize, len: usize, }";
    assert!(before.lines().any(|l| l == line), "got:\n{before}");
}

#[test]
fn api_diff_reports_drift_both_ways() {
    let old = "# header\nalpha fn a sig\nalpha fn b sig\n";
    let same = diff_api(old, "alpha fn a sig\nalpha fn b sig\n# other header\n");
    assert!(same.is_empty(), "comment lines must be ignored: {same:?}");

    let drift = diff_api(old, "# header\nalpha fn a sig\nalpha fn c sig\n");
    assert_eq!(drift, vec!["- alpha fn b sig", "+ alpha fn c sig"]);
}

// ---------------------------------------------------------------------------
// Sort order: same-line findings are rule-ordered and repeatable.
// ---------------------------------------------------------------------------

#[test]
fn multi_rule_same_line_output_is_deterministic() {
    // One line that violates float-ord AND raw-haversine, twice each.
    let body = "\
/// Sorts by a scalar distance, NaN-unsafely.
pub fn sort(xs: &mut [Point], o: Point) {
    xs.sort_by(|a, b| haversine_km(o, *a).partial_cmp(&haversine_km(o, *b)).unwrap());
}
";
    let diags = lint_one("tweetmob-models", body);

    // Same-line findings come out rule-ordered, and repeat runs are
    // byte-identical.
    // The shared header is two lines; the violating line is body line 3.
    let same_line: Vec<_> = diags.iter().filter(|d| d.line == 5).collect();
    assert_eq!(same_line.len(), 4, "{}", render_report(&diags));
    let rules: Vec<Rule> = same_line.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        [
            Rule::FloatOrd,
            Rule::FloatOrd,
            Rule::RawHaversine,
            Rule::RawHaversine
        ],
        "same-line findings sorted by rule"
    );
    assert_eq!(diags, lint_one("tweetmob-models", body));
}
