//! `tweetmob-lint` — runs the workspace invariant linter.
//!
//! ```text
//! cargo run -p tweetmob-lint                  # lint the enclosing workspace
//! cargo run -p tweetmob-lint -- <root>        # lint an explicit workspace root
//! cargo run -p tweetmob-lint -- --gen-api     # (re)write API.lock
//! cargo run -p tweetmob-lint -- --check-api   # fail on public-surface drift
//! ```
//!
//! Exits 0 when the workspace is clean, 1 with `file:line: [rule] message`
//! diagnostics (or an API diff) otherwise, and 2 on I/O errors or a usage
//! error (an unknown flag, both API modes, or more than one root). See
//! the crate docs of `tweetmob_lint` (or `DESIGN.md` §12) for the rules.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Name of the committed public-surface snapshot at the workspace root.
const API_LOCK: &str = "API.lock";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut gen_api = false;
    let mut check_api = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--gen-api" => gen_api = true,
            "--check-api" => check_api = true,
            other if other.starts_with("--") => {
                eprintln!("tweetmob-lint: unknown flag {other}");
                return ExitCode::from(2);
            }
            path if root.is_some() => {
                eprintln!("tweetmob-lint: takes at most one workspace root, got a second: {path}");
                return ExitCode::from(2);
            }
            path => root = Some(PathBuf::from(path)),
        }
    }
    if gen_api && check_api {
        eprintln!("tweetmob-lint: --check-api and --gen-api exclude each other; pass one");
        return ExitCode::from(2);
    }
    let root = root.unwrap_or_else(workspace_root);

    let files = match tweetmob_lint::load_workspace(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("tweetmob-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if gen_api || check_api {
        return run_api_mode(&root, &files, gen_api);
    }

    let diags = tweetmob_lint::lint_files(&files);
    print!("{}", tweetmob_lint::render_report(&diags));
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--gen-api` writes the snapshot; `--check-api` diffs the workspace's
/// current public surface against the committed `API.lock`.
fn run_api_mode(root: &Path, files: &[tweetmob_lint::SourceFile], gen: bool) -> ExitCode {
    let current = tweetmob_lint::api_snapshot(files);
    let lock_path = root.join(API_LOCK);
    if gen {
        if let Err(e) = std::fs::write(&lock_path, &current) {
            eprintln!("tweetmob-lint: cannot write {}: {e}", lock_path.display());
            return ExitCode::from(2);
        }
        println!("tweetmob-lint: wrote {}", lock_path.display());
        return ExitCode::SUCCESS;
    }
    let committed = match std::fs::read_to_string(&lock_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "tweetmob-lint: cannot read {} (generate it with --gen-api): {e}",
                lock_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let diff = tweetmob_lint::diff_api(&committed, &current);
    if diff.is_empty() {
        println!("tweetmob-lint: public API matches {API_LOCK}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tweetmob-lint: public API drifted from {API_LOCK} ({} line(s)); \
             review the change and re-run with --gen-api to accept:",
            diff.len()
        );
        for line in &diff {
            eprintln!("  {line}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root: the nearest ancestor of the current directory with
/// a `Cargo.toml` declaring `[workspace]`, falling back to this crate's
/// compile-time location (`crates/lint/../..`).
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = Some(cwd.as_path());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return d.to_path_buf();
            }
        }
        dir = d.parent();
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), std::path::Path::to_path_buf)
}
