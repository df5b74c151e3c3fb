//! Integration tests for the workspace semantic passes: panic-path call
//! chains, unit-of-measure inference, determinism taint, unused-allow
//! auditing, the API snapshot, and the unified finding sort order.
//!
//! These run `lint_files` on in-memory fixtures (no disk, no scratch
//! dirs), which exercises exactly the workspace path the binary uses.

use tweetmob_lint::{
    api_snapshot, diff_api, lint_files, lint_source, render_report, FileKind, LintOptions, Rule,
    SourceFile,
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
    lint_files(&files, &LintOptions::default())
}

// ---------------------------------------------------------------------------
// panic-path: call-graph reachability with full chains.
// ---------------------------------------------------------------------------

const PANIC_CHAIN: &str = "\
fn inner(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

fn middle(xs: &[f64]) -> f64 {
    inner(xs)
}

/// Entry.
pub fn entry(xs: &[f64]) -> f64 {
    middle(xs)
}
";

#[test]
fn panic_path_reports_full_call_chain() {
    let diags = lint_one("tweetmob-fixture", PANIC_CHAIN);
    let pp: Vec<_> = diags.iter().filter(|d| d.rule == Rule::PanicPath).collect();
    assert_eq!(
        pp.len(),
        1,
        "one reachable site:\n{}",
        render_report(&diags)
    );
    let msg = &pp[0].message;
    // The chain runs entry → middle → inner, callers first.
    assert!(
        msg.contains("`entry` → `middle` → `inner`"),
        "chain must list every hop from the public entry point, got: {msg}"
    );
    assert!(msg.contains("unwrap()"), "site named in message: {msg}");
    // The textual no-panic rule fires on the same line as the path rule.
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::NoPanic && d.line == pp[0].line),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn panic_path_ignores_unreachable_private_fn() {
    // No public caller reaches `inner`: the textual rule still fires, the
    // path rule stays quiet.
    let body = "\
fn inner(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

/// Entry that never calls `inner`.
pub fn entry() -> f64 {
    0.0
}
";
    let diags = lint_one("tweetmob-fixture", body);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::PanicPath),
        "{}",
        render_report(&diags)
    );
    assert!(diags.iter().any(|d| d.rule == Rule::NoPanic));
}

#[test]
fn panic_rule_aliases_suppress_each_other() {
    // One `no-panic` annotation on the site must silence BOTH rules and
    // count as used (no unused-allow), in either alias spelling.
    for alias in ["no-panic", "panic-path"] {
        let annotated = PANIC_CHAIN.replace(
            "    *xs.first().unwrap()",
            &format!(
                "    // lint: allow({alias}) — fixture: slice is non-empty by contract\n    \
                 *xs.first().unwrap()"
            ),
        );
        let diags = lint_one("tweetmob-fixture", &annotated);
        assert!(
            diags.is_empty(),
            "alias `{alias}` must clear both panic rules:\n{}",
            render_report(&diags)
        );
    }
}

#[test]
fn index_panics_is_opt_in() {
    let body = "\
/// Indexes.
pub fn pick(xs: &[f64]) -> f64 {
    xs[0]
}
";
    let files = [sf(
        "crates/fix/src/lib.rs",
        "tweetmob-fixture",
        FileKind::LibRoot,
        body,
    )];
    let quiet = lint_files(&files, &LintOptions::default());
    assert!(quiet.is_empty(), "{}", render_report(&quiet));
    let strict = lint_files(&files, &LintOptions { index_panics: true });
    assert!(
        strict
            .iter()
            .any(|d| d.rule == Rule::PanicPath && d.message.contains("indexing")),
        "{}",
        render_report(&strict)
    );
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

#[test]
fn unit_measure_is_suppressible() {
    let body = "\
/// Sine of a latitude handed over in degrees.
pub fn bad(lat_deg: f64) -> f64 {
    // lint: allow(unit-measure) — fixture documents the escape hatch
    lat_deg.sin()
}
";
    let diags = lint_one("tweetmob-geo", body);
    assert!(diags.is_empty(), "{}", render_report(&diags));
}

// ---------------------------------------------------------------------------
// determinism-taint: clock/thread/unordered values must not reach output.
// ---------------------------------------------------------------------------

#[test]
fn taint_flags_elapsed_flowing_into_format_macro() {
    let body = "\
/// Prints how long a stage took.
pub fn report(start: std::time::Instant) {
    let dt = start.elapsed();
    println!(\"stage took {:?}\", dt);
}
";
    let diags = lint_one("tweetmob-fixture", body);
    let taint: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::DeterminismTaint)
        .collect();
    assert_eq!(taint.len(), 1, "{}", render_report(&diags));
    assert!(
        taint[0].message.contains("wall-clock") && taint[0].message.contains("_ns"),
        "message names the source and routes to obs: {}",
        taint[0].message
    );
}

#[test]
fn taint_flags_unordered_iteration_into_json_sink() {
    let body = "\
/// Serializes counts in whatever order the map yields them.
pub fn dump(map: &std::collections::HashMap<u32, u32>) -> String {
    let mut out = String::new();
    for v in map.values() {
        out.push_str(&to_json(v));
    }
    out
}

fn to_json(v: &u32) -> String {
    format!(\"{v}\")
}
";
    // `tweetmob-bench` is outside the result crates, so the textual
    // HashMap ban stays quiet and only the flow-sensitive rule fires.
    let diags = lint_one("tweetmob-bench", body);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::DeterminismTaint && d.message.contains("unordered")),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn taint_flags_clock_values_flowing_into_trace_exporters() {
    // Both exporter spellings are sinks: a wall-clock value handed to
    // either would put nondeterministic bytes in the exported trace.
    for sink in ["to_chrome_trace", "to_collapsed_stacks"] {
        let body = format!(
            "\
/// Exports the event log, wrongly skewed by a live clock reading.
pub fn export(start: std::time::Instant, buf: &TraceLog) -> String {{
    let skew = start.elapsed().as_nanos() as u64;
    buf.{sink}(skew)
}}
"
        );
        let diags = lint_one("tweetmob-cli", &body);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::DeterminismTaint && d.message.contains("wall-clock")),
            "{sink} should be a taint sink: {}",
            render_report(&diags)
        );
    }
}

#[test]
fn taint_exempts_trace_exporters_inside_obs() {
    // The event log's own exporter is the sanctioned path: inside
    // tweetmob-obs the redaction contract (and its byte-diff tests)
    // polices timing, not the taint pass.
    let body = "\
/// Renders the event buffer, stamping each event's recorded clock.
pub fn export(log: &TraceLog, captured_at: std::time::Instant) -> String {
    let t_ns = captured_at.elapsed().as_nanos() as u64;
    log.to_chrome_trace(t_ns)
}
";
    let diags = lint_one("tweetmob-obs", body);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "{}",
        render_report(&diags)
    );
}

#[test]
fn taint_exempts_obs_and_untainted_values() {
    let body = "\
/// Prints how long a stage took.
pub fn report(start: std::time::Instant) {
    let dt = start.elapsed();
    println!(\"stage took {:?}\", dt);
}
";
    // The obs crate owns the sanctioned `_ns` redaction path.
    let diags = lint_one("tweetmob-obs", body);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "{}",
        render_report(&diags)
    );

    // A value with no nondeterministic ancestry may be printed anywhere.
    let clean = "\
/// Prints a pure function of the input.
pub fn report(n: u64) {
    let doubled = n * 2;
    println!(\"{doubled}\");
}
";
    let diags = lint_one("tweetmob-fixture", clean);
    assert!(diags.is_empty(), "{}", render_report(&diags));
}

// ---------------------------------------------------------------------------
// unused-allow: escape hatches must keep earning their place.
// ---------------------------------------------------------------------------

#[test]
fn stale_allow_is_a_finding() {
    let body = "\
/// Nothing here panics.
pub fn fine(xs: &[f64]) -> f64 {
    // lint: allow(no-panic) — left behind after a refactor
    xs.first().copied().unwrap_or(0.0)
}
";
    let diags = lint_one("tweetmob-fixture", body);
    let ua: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::UnusedAllow)
        .collect();
    assert_eq!(ua.len(), 1, "{}", render_report(&diags));
    assert!(
        ua[0].message.contains("stale") && ua[0].message.contains("no-panic"),
        "{}",
        ua[0].message
    );
}

#[test]
fn unknown_rule_and_missing_reason_are_findings() {
    let body = "\
/// Typo'd rule name.
pub fn f(xs: &[f64]) -> f64 {
    // lint: allow(no-panics) — off by a letter
    *xs.first().unwrap()
}

/// Annotation without a justification.
pub fn g(xs: &[f64]) -> f64 {
    // lint: allow(no-panic)
    *xs.first().unwrap()
}
";
    let diags = lint_one("tweetmob-fixture", body);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::UnusedAllow && d.message.contains("unknown rule")),
        "{}",
        render_report(&diags)
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::UnusedAllow && d.message.contains("justification")),
        "{}",
        render_report(&diags)
    );
    // Neither malformed annotation suppresses: the unwraps still fire.
    assert_eq!(
        diags.iter().filter(|d| d.rule == Rule::NoPanic).count(),
        2,
        "{}",
        render_report(&diags)
    );
}

#[test]
fn unused_allow_skips_test_code_and_single_file_mode() {
    let body = "\
/// Fine.
pub fn fine() -> f64 {
    0.0
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        // lint: allow(no-panic) — tests may hedge freely
        assert_eq!(super::fine(), 0.0);
    }
}
";
    let diags = lint_one("tweetmob-fixture", body);
    assert!(diags.is_empty(), "{}", render_report(&diags));

    // `lint_source` (single-file mode, e.g. editor integration) never
    // reports unused-allow: it cannot see the whole workspace.
    let stale = format!(
        "{HEADER}/// Fine.\npub fn fine() -> f64 {{\n    \
         // lint: allow(no-panic) — stale\n    0.0\n}}\n"
    );
    let diags = lint_source("lib.rs", "tweetmob-fixture", FileKind::LibRoot, &stale);
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
    // One line that violates float-ord AND no-panic at once.
    let body = "\
/// Sorts NaN-unsafely and panics on NaN, all on one line.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
";
    let via_files = lint_one("tweetmob-fixture", body);
    let source = format!("{HEADER}{body}");
    let via_source = lint_source(
        "crates/fix/src/lib.rs",
        "tweetmob-fixture",
        FileKind::LibRoot,
        &source,
    );

    // Both paths produce the same findings in the same order. (The
    // workspace path adds the panic-path diagnostic; drop it to compare
    // the shared textual set.)
    let textual: Vec<_> = via_files
        .iter()
        .filter(|d| d.rule != Rule::PanicPath)
        .cloned()
        .collect();
    assert_eq!(textual, via_source, "paths must agree byte-for-byte");

    // Same-line findings come out rule-ordered, and repeat runs are
    // byte-identical.
    // The shared header is two lines; the violating line is body line 3.
    let same_line: Vec<_> = via_files.iter().filter(|d| d.line == 5).collect();
    assert!(same_line.len() >= 2, "{}", render_report(&via_files));
    let mut rules: Vec<Rule> = same_line.iter().map(|d| d.rule).collect();
    let unsorted = rules.clone();
    rules.sort();
    assert_eq!(rules, unsorted, "same-line findings sorted by rule");
    assert_eq!(via_files, lint_one("tweetmob-fixture", body));
    assert_eq!(render_report(&via_files), render_report(&via_files.clone()));
}
