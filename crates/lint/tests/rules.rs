//! Integration tests for the workspace semantic pass (unit-of-measure
//! inference), the API snapshot, and the unified finding sort order.
//!
//! These run `lint_files` on in-memory fixtures (no disk, no scratch
//! dirs), which exercises exactly the workspace path the binary uses.

use tweetmob_lint::{
    api_snapshot, diff_api, lint_files, lint_source, render_report, FileKind, Rule, SourceFile,
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
// unit-measure: degree/radian/km conventions in the geographic crates.
// ---------------------------------------------------------------------------

#[test]
fn unit_measure_flags_trig_on_degrees() {
    let body = "\
/// Sine of a latitude handed over in degrees.
pub fn bad(lat_deg: f64) -> f64 {
    lat_deg.sin()
}
";
    let diags = lint_one("tweetmob-geo", body);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::UnitMeasure && d.message.contains("degrees")),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn unit_measure_flags_double_conversion() {
    let body = "\
/// Converts a value that is already in radians.
pub fn bad(lat_rad: f64) -> f64 {
    lat_rad.to_radians()
}
";
    let diags = lint_one("tweetmob-geo", body);
    assert!(
        diags.iter().any(|d| d.rule == Rule::UnitMeasure),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn unit_measure_flags_mixed_arithmetic() {
    let body = "\
/// Adds a degree quantity to a radian quantity.
pub fn bad(a_deg: f64, b_rad: f64) -> f64 {
    a_deg + b_rad
}
";
    let diags = lint_one("tweetmob-models", body);
    assert!(
        diags.iter().any(|d| d.rule == Rule::UnitMeasure),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn unit_measure_accepts_clean_code_and_other_crates() {
    let body = "\
/// Correct conversion chain, and a km quantity left alone.
pub fn good(lat_deg: f64, radius_km: f64) -> f64 {
    let lat_rad = lat_deg.to_radians();
    lat_rad.sin() * radius_km
}
";
    let diags = lint_one("tweetmob-geo", body);
    assert!(diags.is_empty(), "{}", render_report(&diags));

    // The same violation outside the unit-checked crates is not this
    // rule's business.
    let bad = "\
/// Sine of degrees, but in a crate with no unit contract.
pub fn bad(lat_deg: f64) -> f64 {
    lat_deg.sin()
}
";
    let diags = lint_one("tweetmob-fixture", bad);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::UnitMeasure),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn unit_measure_division_resets_the_unit() {
    // `radius_km / KM_PER_DEG` is no longer kilometres; converting the
    // quotient must not be flagged (the real geo crate does exactly this).
    let body = "\
/// Kilometres per degree of latitude.
pub const KM_PER_DEG: f64 = 111.32;

/// Radius window in degrees, then radians.
pub fn window(radius_km: f64) -> f64 {
    let dlat = radius_km / KM_PER_DEG;
    dlat.to_radians()
}
";
    let diags = lint_one("tweetmob-geo", body);
    assert!(diags.is_empty(), "{}", render_report(&diags));
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
";
    let files = [sf(
        "crates/fix/src/lib.rs",
        "tweetmob-fixture",
        FileKind::LibRoot,
        body,
    )];
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
// Unified sort order: single-file and workspace paths agree.
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
    let via_files = lint_one("tweetmob-models", body);
    let source = format!("{HEADER}{body}");
    let via_source = lint_source(
        "crates/fix/src/lib.rs",
        "tweetmob-models",
        FileKind::LibRoot,
        &source,
    );

    // Both paths produce the same findings in the same order.
    assert_eq!(via_files, via_source, "paths must agree byte-for-byte");

    // Same-line findings come out rule-ordered, and repeat runs are
    // byte-identical.
    // The shared header is two lines; the violating line is body line 3.
    let same_line: Vec<_> = via_files.iter().filter(|d| d.line == 5).collect();
    assert_eq!(same_line.len(), 4, "{}", render_report(&via_files));
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
    assert_eq!(via_files, lint_one("tweetmob-models", body));
}
