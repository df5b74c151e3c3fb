//! Runs `tweetmob paper` end to end on small corpora: `all` prints
//! exactly what the ten text artifacts print one by one, `figures`
//! writes the 13 SVG files, a bad invocation is a usage error, an E11
//! run with no successful fit fails instead of printing a verdict, and a
//! run computes each corpus, fit and population once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tweetmob_obs::Json;

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

const HINT: &str = "run `tweetmob help` for usage";

/// Runs `tweetmob paper <args>` in `cwd`.
fn run(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tweetmob"))
        .arg("paper")
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("tweetmob starts")
}

/// The stdout of a successful `tweetmob paper <args> --users 1000`.
fn stdout_of(cwd: &Path, args: &[&str]) -> String {
    let mut argv = args.to_vec();
    argv.extend(["--users", "1000"]);
    let out = run(cwd, &argv);
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

/// Every bad invocation exits 1 with the usage hint and prints nothing
/// on stdout; a missing or unknown artifact also lists the twelve names.
#[test]
fn a_bad_invocation_is_a_usage_error() {
    let dir = scratch("paper-usage");
    let names = "table1 fig1 fig2 fig3 fig4 table2 counterfactual temporal \
                 ablation_models displacement figures all";
    for (args, lists_names) in [
        (&[][..], true),
        (&["table3"], true),
        (&["table1", "--sweep"], false),
        (&["all", "x"], false),
        (&["table1", "--users", "abc"], false),
        (&["table1", "--users", "-5"], false),
        (&["table1", "--users", "0"], false),
        (&["table1", "--seed", "x"], false),
    ] {
        let out = run(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.contains(HINT), "{args:?}: {stderr}");
        assert_eq!(stderr.contains(names), lists_names, "{args:?}: {stderr}");
    }
}

/// With one user every E11 fit fails, so neither world has a gap: the
/// run prints an inconclusive verdict and fails instead of reading
/// "did NOT shrink" off two NaNs, and `all` lists it among its failures.
#[test]
fn counterfactual_without_a_fit_is_inconclusive_and_fails() {
    let dir = scratch("paper-counterfactual");
    let out = run(&dir, &["counterfactual", "--users", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stdout.contains("did NOT shrink"), "{stdout}");
    assert!(
        stdout.contains("inconclusive: no successful fit in the Australia and uniform worlds"),
        "{stdout}"
    );
    assert!(stderr.starts_with("error: inconclusive"), "{stderr}");
    let all = run(&dir, &["all", "--users", "1"]);
    let stderr = String::from_utf8_lossy(&all.stderr);
    assert_eq!(all.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.ends_with("error: failed: table2 counterfactual\n"),
        "{stderr}"
    );
}

/// The metrics document of a successful `tweetmob paper <args> --users
/// 1000 --metrics-out m.json` run in `cwd`.
fn metrics_of(cwd: &Path, args: &[&str]) -> Json {
    let mut argv = args.to_vec();
    argv.extend(["--users", "1000", "--metrics-out", "m.json"]);
    let out = run(cwd, &argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {}\n{stderr}", out.status);
    let doc = std::fs::read_to_string(cwd.join("m.json")).expect("metrics written");
    Json::parse(&doc).expect("metrics JSON")
}

/// The global flags apply to a paper run: its manifest names the
/// `paper` subcommand, and fig3 runs four corpus scans (three scales,
/// then the 0.5 km metro row; (b)'s 2 km row is (a)'s metro scan).
#[test]
fn metrics_out_records_a_paper_run() {
    let dir = scratch("paper-metrics");
    let doc = metrics_of(&dir, &["fig3"]);
    assert_eq!(doc["manifest"]["subcommand"], "paper");
    assert_eq!(doc["timing"]["spans"]["scan"]["calls"], 4);
}

/// Each corpus, fit and scan is computed once per run. `all` generates
/// two corpora: the study's, which E11 reads as its Australia, and E11's
/// uniform world. It fits five times: the study's three scales and the
/// uniform world's two regions. It scans 22 times: fig3's three scales
/// and 0.5 km metro row, which the study's fits and E12's two
/// full-period rows read again, E11's two regions, and E12's 16 monthly
/// windows. The fig3 sweep scans its 8 distinct radius and scale pairs
/// once each.
#[test]
fn a_paper_run_computes_each_corpus_fit_and_population_once() {
    let dir = scratch("paper-work");
    for (args, counts) in [
        (
            &["all"][..],
            &[("synth/generate", 2), ("trips", 5), ("scan", 22)][..],
        ),
        (&["counterfactual"], &[("synth/generate", 2)]),
        (&["fig3", "--sweep"], &[("scan", 8)]),
    ] {
        let doc = metrics_of(&dir, args);
        for &(span, calls) in counts {
            assert_eq!(
                doc["timing"]["spans"][span]["calls"], calls,
                "{args:?}: {span}"
            );
        }
    }
}
