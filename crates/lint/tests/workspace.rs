//! Integration tests: the linter against the real workspace (self-check
//! and `API.lock`) and against on-disk bad-fixture crates, including the
//! binary's exit codes.

use std::fs;
use std::path::{Path, PathBuf};

use tweetmob_lint::{
    api_snapshot, diff_api, lint_files, load_workspace, render_report, Diagnostic, Rule,
};

/// The enclosing real workspace root (`crates/lint/../..`).
fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

/// Lints every workspace source file under `root`, as the binary does.
fn lint_root(root: &Path) -> Vec<Diagnostic> {
    lint_files(&load_workspace(root).expect("load the workspace"))
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

/// Writes a one-crate fixture workspace whose package is `package`, so
/// crate-scoped rules (`raw-haversine`) apply as they would to that crate.
fn write_fixture(root: &Path, package: &str, lib_source: &str) {
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

/// The fixtures' package: a model-fitting crate, where both textual rules
/// apply.
const MODELS: &str = "tweetmob-models";

const BAD_FIXTURE: &str = "\
//! Bad fixture: violates every textual rule family.

/// Sorts floats NaN-unsafely.
pub fn sort_floats(xs: &mut [f64]) {
    xs.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
}

/// Measures one pair without the geometry cache.
pub fn dist(a: Point, b: Point) -> f64 {
    tweetmob_geo::haversine_km(a, b)
}

/// Compiles in every non-test build, so it is linted like any other item.
#[cfg(not(test))]
pub fn release_only(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
}
";

const GOOD_FIXTURE: &str = "\
//! Good fixture: the same shapes written within the rules.

/// Sorts floats with a total order.
pub fn sort_floats(xs: &mut [f64]) {
    xs.sort_by(|a, b| b.total_cmp(a));
}

/// Takes the distance from the shared geometry cache.
pub fn dist(geometry: &PairGeometry, i: usize, j: usize) -> f64 {
    geometry.distance_km(i, j)
}

#[cfg(test)]
mod tests {
    /// Test code may compare against the scalar path.
    fn reference(a: Point, b: Point) -> f64 {
        tweetmob_geo::haversine_km(a, b)
    }
}
";

#[test]
fn real_workspace_is_clean() {
    let diags = lint_root(&real_root());
    assert!(
        diags.is_empty(),
        "the workspace must self-lint clean, found:\n{}",
        render_report(&diags)
    );
}

#[test]
fn api_lock_matches_the_workspace() {
    let root = real_root();
    let committed = fs::read_to_string(root.join("API.lock")).expect("read API.lock");
    let current = api_snapshot(&load_workspace(&root).expect("load the real workspace"));
    let diff = diff_api(&committed, &current);
    assert!(
        diff.is_empty(),
        "the public API drifted from API.lock; review it and regenerate with \
         `cargo run -p tweetmob-lint -- --gen-api`:\n{}",
        diff.join("\n")
    );
}

#[test]
fn good_fixture_is_clean() {
    let scratch = Scratch::new("good");
    write_fixture(scratch.path(), MODELS, GOOD_FIXTURE);
    let diags = lint_root(scratch.path());
    assert!(diags.is_empty(), "unexpected:\n{}", render_report(&diags));
}

#[test]
fn bad_fixture_is_flagged_on_exact_lines() {
    let scratch = Scratch::new("bad");
    write_fixture(scratch.path(), MODELS, BAD_FIXTURE);
    let diags = lint_root(scratch.path());
    let found: Vec<(usize, Rule)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    // Lines 5 and 16 each flag twice: the `partial_cmp` call, and the
    // comparator, which names `Ordering` but calls no total order.
    assert_eq!(
        found,
        vec![
            (5, Rule::FloatOrd),
            (5, Rule::FloatOrd),
            (10, Rule::RawHaversine),
            (16, Rule::FloatOrd),
            (16, Rule::FloatOrd)
        ],
        "{}",
        render_report(&diags)
    );
}

#[test]
fn raw_haversine_fixture_is_scoped_by_crate() {
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
    write_fixture(scratch.path(), MODELS, FIXTURE);
    let diags = lint_root(scratch.path());
    assert_eq!(
        diags.len(),
        1,
        "exactly the scalar call fires:\n{}",
        render_report(&diags)
    );
    assert_eq!(diags[0].rule, Rule::RawHaversine);
    assert_eq!(diags[0].line, 8);

    // Under a batch-kernel crate the same loop flags with the
    // hoist-onto-`TrigPoint` message (the call sits inside `for`
    // bodies)...
    write_fixture(scratch.path(), "tweetmob-geo", FIXTURE);
    let geo = lint_root(scratch.path());
    assert_eq!(geo.len(), 1, "{}", render_report(&geo));
    assert_eq!(geo[0].rule, Rule::RawHaversine);
    assert_eq!(geo[0].line, 8);
    assert!(geo[0].message.contains("TrigPoint"), "{}", geo[0].message);

    // ...while a crate on neither list never sees the rule.
    write_fixture(scratch.path(), "tweetmob-synth", FIXTURE);
    let synth = lint_root(scratch.path());
    assert!(synth.is_empty(), "{}", render_report(&synth));
}

#[test]
fn binary_reports_diagnostics_and_exit_codes() {
    let scratch = Scratch::new("bin");
    write_fixture(scratch.path(), MODELS, BAD_FIXTURE);
    let bin = env!("CARGO_BIN_EXE_tweetmob-lint");

    let out = std::process::Command::new(bin)
        .arg(scratch.path())
        .output()
        .expect("run tweetmob-lint on bad fixture");
    assert_eq!(out.status.code(), Some(1), "bad fixture must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("lib.rs:5: [float-ord]"),
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

    // Asking to check and to regenerate at once is a usage error: the
    // check must not quietly become a write that exits 0.
    let both = std::process::Command::new(bin)
        .args(["--check-api", "--gen-api"])
        .arg(scratch.path())
        .output()
        .expect("run tweetmob-lint with both API modes");
    assert_eq!(
        both.status.code(),
        Some(2),
        "--check-api --gen-api must exit 2"
    );
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("--gen-api"),
        "stderr must name the conflict"
    );
    assert!(
        !scratch.path().join("API.lock").exists(),
        "a rejected run must not write API.lock"
    );

    // A second root must not silently replace the first.
    let two_roots = std::process::Command::new(bin)
        .arg(scratch.path())
        .arg(real_root())
        .output()
        .expect("run tweetmob-lint with two roots");
    assert_eq!(two_roots.status.code(), Some(2), "two roots must exit 2");
    assert!(
        String::from_utf8_lossy(&two_roots.stderr).contains("one workspace root"),
        "stderr must name the extra root"
    );
}
