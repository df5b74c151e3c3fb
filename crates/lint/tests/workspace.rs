//! Integration tests: the linter against the real workspace (self-check)
//! and against on-disk bad-fixture crates, including the binary's exit
//! codes.

use std::fs;
use std::path::{Path, PathBuf};

use tweetmob_lint::{lint_workspace, render_report, Rule};

/// The enclosing real workspace root (`crates/lint/../..`).
fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

/// A scratch directory unique to this test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tweetmob-lint-test-{}-{tag}", std::process::id()));
        // A stale dir from a crashed earlier run must not pollute results.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Writes a one-crate fixture workspace. The crate is named
/// `tweetmob-core` so the result-crate (determinism) and cast-strict
/// (lossy-cast) rule families both apply.
fn write_fixture(root: &Path, lib_source: &str) {
    write_named_fixture(root, "tweetmob-core", lib_source);
}

/// As [`write_fixture`] but with an explicit package name, for rules
/// scoped to particular crates (e.g. `raw-haversine`).
fn write_named_fixture(root: &Path, package: &str, lib_source: &str) {
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write workspace manifest");
    let pkg = root.join("crates/fixture");
    fs::create_dir_all(pkg.join("src")).expect("create fixture src");
    fs::write(
        pkg.join("Cargo.toml"),
        format!("[package]\nname = \"{package}\"\nversion = \"0.0.0\"\n"),
    )
    .expect("write fixture manifest");
    fs::write(pkg.join("src/lib.rs"), lib_source).expect("write fixture lib.rs");
}

const BAD_FIXTURE: &str = "\
//! Bad fixture: violates every rule family.

/// Returns the first element.
pub fn first(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}

/// Sorts floats NaN-unsafely.
pub fn sort_floats(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));
}

/// Counts values through a hash map.
pub fn count(map: &std::collections::HashMap<u32, u32>) -> u32 {
    map.values().sum()
}

/// Truncates a scaled value.
pub fn trunc(x: f64) -> i64 {
    (x * 3.0) as i64
}

/// Spawns a bespoke worker thread.
pub fn spawn_worker() {
    std::thread::spawn(|| {});
}
";

const GOOD_FIXTURE: &str = "\
//! Good fixture: the same shapes written within the rules.

/// Returns the first element, if any.
pub fn first(xs: &[f64]) -> Option<f64> {
    xs.first().copied()
}

/// Sorts floats with a total order.
pub fn sort_floats(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b));
}

/// Counts values through an ordered map.
pub fn count(map: &std::collections::BTreeMap<u32, u32>) -> u32 {
    map.values().sum()
}

/// Rounds a scaled value explicitly before converting.
pub fn trunc(x: f64) -> i64 {
    (x * 3.0).floor() as i64
}

/// Dispatches work on the shared pool instead of spawning raw threads.
pub fn spawn_worker() -> usize {
    tweetmob_par::par_map_chunks(\"fixture\", 8, 0, |r| r.len()).len()
}
";

#[test]
fn real_workspace_is_clean() {
    let diags = lint_workspace(&real_root()).expect("lint the real workspace");
    assert!(
        diags.is_empty(),
        "the workspace must self-lint clean, found:\n{}",
        render_report(&diags)
    );
}

#[test]
fn good_fixture_is_clean() {
    let scratch = Scratch::new("good");
    write_fixture(scratch.path(), GOOD_FIXTURE);
    let diags = lint_workspace(scratch.path()).expect("lint good fixture");
    assert!(diags.is_empty(), "unexpected:\n{}", render_report(&diags));
}

#[test]
fn bad_fixture_is_flagged_on_exact_lines() {
    let scratch = Scratch::new("bad");
    write_fixture(scratch.path(), BAD_FIXTURE);
    let diags = lint_workspace(scratch.path()).expect("lint bad fixture");

    let has = |line: usize, rule: Rule| {
        diags
            .iter()
            .any(|d| d.file.ends_with("lib.rs") && d.line == line && d.rule == rule)
    };
    // `.unwrap()` in library code.
    assert!(has(5, Rule::NoPanic), "{}", render_report(&diags));
    // `partial_cmp` inside a sort closure (and `.expect` riding along).
    assert!(has(10, Rule::FloatOrd), "{}", render_report(&diags));
    assert!(has(10, Rule::NoPanic), "{}", render_report(&diags));
    // `HashMap` in a result-producing crate's library path.
    assert!(has(14, Rule::Determinism), "{}", render_report(&diags));
    // Bare float→int truncation with float arithmetic in the cast span.
    assert!(has(20, Rule::LossyCast), "{}", render_report(&diags));
    // Raw thread spawn outside the shared pool.
    assert!(has(25, Rule::ParLayer), "{}", render_report(&diags));

    // No stray findings outside the five violation sites.
    let expected_lines = [5, 10, 14, 20, 25];
    for d in &diags {
        assert!(expected_lines.contains(&d.line), "unexpected finding: {d}");
    }
}

#[test]
fn raw_haversine_fixture_is_flagged_and_annotatable() {
    const FIXTURE: &str = "\
//! Model crate fixture calling the scalar distance path directly.

/// Sums distances pair by pair instead of using the cache.
pub fn total(points: &[Point]) -> f64 {
    let mut sum = 0.0;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            sum += tweetmob_geo::haversine_km(*a, *b);
        }
    }
    sum
}
";
    let scratch = Scratch::new("raw-haversine");
    write_named_fixture(scratch.path(), "tweetmob-models", FIXTURE);
    let diags = lint_workspace(scratch.path()).expect("lint raw-haversine fixture");
    assert_eq!(
        diags.len(),
        1,
        "exactly the scalar call fires:\n{}",
        render_report(&diags)
    );
    assert_eq!(diags[0].rule, Rule::RawHaversine);
    assert_eq!(diags[0].line, 8);

    // Under a batch-kernel crate the same loop flags with the
    // hoist-onto-the-batch-API message (the call sits inside `for`
    // bodies)...
    write_named_fixture(scratch.path(), "tweetmob-geo", FIXTURE);
    let geo = lint_workspace(scratch.path()).expect("lint under tweetmob-geo");
    assert_eq!(geo.len(), 1, "{}", render_report(&geo));
    assert_eq!(geo[0].rule, Rule::RawHaversine);
    assert_eq!(geo[0].line, 8);
    assert!(
        geo[0].message.contains("haversine_km_batch"),
        "{}",
        geo[0].message
    );

    // ...while a crate on neither list never sees the rule.
    write_named_fixture(scratch.path(), "tweetmob-synth", FIXTURE);
    let synth = lint_workspace(scratch.path()).expect("lint under tweetmob-synth");
    assert!(synth.is_empty(), "{}", render_report(&synth));

    // ...and the escape hatch clears the finding in the fitting crate.
    let annotated = FIXTURE.replace(
        "            sum += tweetmob_geo::haversine_km(*a, *b);",
        "            // lint: allow(raw-haversine) — fixture documents the escape hatch\n            \
         sum += tweetmob_geo::haversine_km(*a, *b);",
    );
    write_named_fixture(scratch.path(), "tweetmob-models", &annotated);
    let allowed = lint_workspace(scratch.path()).expect("lint annotated fixture");
    assert!(allowed.is_empty(), "{}", render_report(&allowed));
}

#[test]
fn annotated_bad_fixture_is_allowed() {
    let scratch = Scratch::new("annotated");
    let annotated = BAD_FIXTURE.replace(
        "    *xs.first().unwrap()",
        "    // lint: allow(no-panic) — fixture documents the escape hatch\n    \
         *xs.first().unwrap()",
    );
    write_fixture(scratch.path(), &annotated);
    let diags = lint_workspace(scratch.path()).expect("lint annotated fixture");
    assert!(
        !diags
            .iter()
            .any(|d| d.rule == Rule::NoPanic && d.message.contains("unwrap")),
        "annotated unwrap must be allowed:\n{}",
        render_report(&diags)
    );
    // The other, un-annotated violations still fire.
    assert!(diags.iter().any(|d| d.rule == Rule::FloatOrd));
    assert!(diags.iter().any(|d| d.rule == Rule::Determinism));
    assert!(diags.iter().any(|d| d.rule == Rule::LossyCast));
}

#[test]
fn binary_reports_diagnostics_and_exit_codes() {
    let scratch = Scratch::new("bin");
    write_fixture(scratch.path(), BAD_FIXTURE);
    let bin = env!("CARGO_BIN_EXE_tweetmob-lint");

    let out = std::process::Command::new(bin)
        .arg(scratch.path())
        .output()
        .expect("run tweetmob-lint on bad fixture");
    assert_eq!(out.status.code(), Some(1), "bad fixture must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("lib.rs:5: [no-panic]"),
        "diagnostics must carry file:line: [rule], got:\n{stdout}"
    );
    assert!(
        stdout.contains("finding"),
        "summary line expected:\n{stdout}"
    );

    let clean = std::process::Command::new(bin)
        .arg(real_root())
        .output()
        .expect("run tweetmob-lint on the real workspace");
    assert_eq!(clean.status.code(), Some(0), "real workspace must exit 0");
    assert!(String::from_utf8_lossy(&clean.stdout).contains("workspace clean"));

    // A typo'd root must not pass as "clean": exit 2, not 0.
    let missing = std::process::Command::new(bin)
        .arg(scratch.path().join("no-such-workspace"))
        .output()
        .expect("run tweetmob-lint on a nonexistent root");
    assert_eq!(missing.status.code(), Some(2), "missing root must exit 2");
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("not a workspace root"),
        "stderr must explain the failure"
    );
}
