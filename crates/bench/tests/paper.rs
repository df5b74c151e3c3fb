//! Runs the paper binary end to end on a 1,000-user corpus: every artifact
//! succeeds, `all` prints exactly what the ten text artifacts print one
//! by one, and `figures` writes the 13 SVG files.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The text artifacts in the order `all` runs them.
const TEXT: [&str; 10] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "counterfactual",
    "temporal",
    "ablation_models",
    "displacement",
];

fn run(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tweetmob-bench"))
        .args(args)
        .current_dir(cwd)
        .env("TWEETMOB_USERS", "1000")
        .env_remove("TWEETMOB_SEED")
        .output()
        .expect("the paper binary starts")
}

fn stdout_of(cwd: &Path, args: &[&str]) -> String {
    let out = run(cwd, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn all_prints_each_text_artifact_in_order() {
    let dir = scratch("paper-all");
    let mut expected = String::new();
    for name in TEXT {
        expected.push('\n');
        expected.push_str(&stdout_of(&dir, &[name]));
    }
    assert!(expected.starts_with(
        "\n================================================================\n\
         TABLE I — dataset statistics\n\
         synthetic dataset: 1000 users, "
    ));
    assert_eq!(stdout_of(&dir, &["all"]), expected);
    assert!(stdout_of(&dir, &["fig3", "--sweep"]).contains("(E9 ablation)"));
}

#[test]
fn figures_writes_thirteen_svgs() {
    let dir = scratch("paper-figures");
    let stdout = stdout_of(&dir, &["figures"]);
    assert!(stdout.contains("wrote 13 SVG files:"), "{stdout}");
    let svgs = std::fs::read_dir(dir.join("figures"))
        .expect("figures/ exists")
        .filter(|e| {
            let path = e.as_ref().expect("dir entry").path();
            let svg = std::fs::read_to_string(&path).expect("readable SVG");
            path.extension().is_some_and(|x| x == "svg") && svg.starts_with("<svg")
        })
        .count();
    assert_eq!(svgs, 13);
}

#[test]
fn a_bad_invocation_lists_the_artifacts_and_exits_2() {
    let dir = scratch("paper-usage");
    for args in [&[][..], &["table3"], &["table1", "--sweep"], &["all", "x"]] {
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "table1 fig1 fig2 fig3 fig4 table2 counterfactual temporal \
                             ablation_models displacement figures all"
            ),
            "{stderr}"
        );
    }
}
