//! End-to-end tests of the `tweetmob` binary: real process spawns over
//! temp files, covering every subcommand and the error paths a user hits
//! first.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use tweetmob_obs::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tweetmob"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tweetmob-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn tweetmob")
}

/// Runs `generate` into `tmp(name)` with `args` and returns the path.
fn generated(name: &str, args: &[&str]) -> PathBuf {
    let path = tmp(name);
    let mut argv = vec!["generate", path.to_str().unwrap()];
    argv.extend_from_slice(args);
    let out = run(&argv);
    assert!(out.status.success(), "generate: {}", stderr(&out));
    path
}

/// Runs `fit` on `data` with `args` and returns the artifact path:
/// `data` with a `.tma` extension.
fn fitted(data: &std::path::Path, args: &[&str]) -> PathBuf {
    let artifact = data.with_extension("tma");
    let mut argv = vec![
        "fit",
        data.to_str().unwrap(),
        "--artifact-out",
        artifact.to_str().unwrap(),
    ];
    argv.extend_from_slice(args);
    let out = run(&argv);
    assert!(out.status.success(), "fit: {}", stderr(&out));
    artifact
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["help"][..], &["--help"][..], &[][..]] {
        let out = run(args);
        assert!(out.status.success(), "{args:?}");
        assert!(stdout(&out).contains("USAGE"));
        assert!(stdout(&out).contains("generate"));
    }
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
    assert!(stderr(&out).contains("help"));
}

/// Usage errors end with a pointer to `tweetmob help`; other failures,
/// such as a dataset that cannot be read, do not.
#[test]
fn usage_hint_follows_usage_errors_only() {
    const HINT: &str = "run `tweetmob help` for usage";
    let unknown = run(&["frobnicate"]);
    assert!(stderr(&unknown).contains(HINT), "{}", stderr(&unknown));
    let no_artifact = run(&["fit", "data.twc"]);
    assert_eq!(no_artifact.status.code(), Some(1));
    let err = stderr(&no_artifact);
    assert!(err.contains("missing --artifact-out PATH"), "{err}");
    assert!(err.contains(HINT), "{err}");
    let unreadable = run(&["summary", "/nonexistent/nowhere.jsonl"]);
    assert_eq!(unreadable.status.code(), Some(1));
    let err = stderr(&unreadable);
    assert!(err.contains("cannot open"), "{err}");
    assert!(!err.contains(HINT), "{err}");
}

#[test]
fn generate_summary_population_mobility_pipeline() {
    let path = tmp("pipeline.jsonl");
    let path_str = path.to_str().unwrap();

    // generate
    let out = run(&["generate", path_str, "--users", "1500", "--seed", "11"]);
    assert!(out.status.success(), "generate: {}", stderr(&out));
    assert!(stdout(&out).contains("1500 users"));

    // summary
    let out = run(&["summary", path_str]);
    assert!(out.status.success(), "summary: {}", stderr(&out));
    assert!(stdout(&out).contains("No. unique users   : 1500"));
    // One data-funnel line per scale.
    for scale in ["National", "State", "Metropolitan"] {
        let line = stdout(&out)
            .lines()
            .find(|l| l.starts_with(&format!("Funnel {scale} ")))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no {scale} funnel line"));
        for part in ["tweets in ≥1 area", "same-area", "unassigned", "trips"] {
            assert!(line.contains(part), "{line}");
        }
    }

    // population (national default)
    let out = run(&["population", path_str]);
    assert!(out.status.success(), "population: {}", stderr(&out));
    assert!(stdout(&out).contains("Sydney"));
    assert!(stdout(&out).contains("r(log)"));

    // mobility with extensions
    let out = run(&["mobility", path_str, "--scale", "national", "--extended"]);
    assert!(out.status.success(), "mobility: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Gravity 2Param"));
    assert!(text.contains("Radiation"));
    assert!(text.contains("Gravity IPF"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_format_roundtrips_via_cli() {
    let path = generated("roundtrip.twc", &["--users", "400", "--seed", "5"]);
    let out = run(&["summary", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("No. unique users   : 400"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn convert_roundtrips_jsonl_through_twc_byte_for_byte() {
    let jsonl = generated("convert-a.jsonl", &["--users", "300", "--seed", "6"]);
    let twc = tmp("convert-b.twc");
    let back = tmp("convert-c.jsonl");
    for (from, to) in [(&jsonl, &twc), (&twc, &back)] {
        let out = run(&[
            "convert",
            "--in",
            from.to_str().unwrap(),
            "--out",
            to.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    assert!(std::fs::read(&twc).unwrap().starts_with(b"TWC0"));
    assert_eq!(
        std::fs::read(&back).unwrap(),
        std::fs::read(&jsonl).unwrap(),
        "JSONL -> TWC0 -> JSONL must give back the same bytes"
    );

    // The output extension is the only format switch.
    let csv = tmp("convert.csv");
    let out = run(&["generate", csv.to_str().unwrap(), "--users", "10"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains(".jsonl") && err.contains(".twc"), "{err}");
    assert!(!csv.exists(), "a rejected run must write nothing");
    for path in [&jsonl, &twc, &back] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn removed_flags_are_unknown_flags() {
    for (command, flag) in [
        ("generate", "--format"),
        ("convert", "--format"),
        ("predict", "--fit"),
        ("predict", "--scale"),
        ("predict", "--census"),
        ("mobility", "--artifact-out"),
    ] {
        let out = run(&[command, flag, "x"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{command} {flag}: {err}");
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{command} {flag}: {err}"
        );
    }
    // `epidemic` takes no dataset: its model comes from `fit`.
    let err = stderr(&run(&["epidemic", "data.jsonl"]));
    assert!(err.contains("unexpected argument \"data.jsonl\""), "{err}");
    let err = stderr(&run(&["epidemic"]));
    assert!(err.contains("missing --artifact-in PATH"), "{err}");
}

#[test]
fn stray_positionals_are_usage_errors_and_write_nothing() {
    let data = generated("stray.twc", &["--users", "300", "--seed", "5"]);
    let artifact = fitted(&data, &[]);
    let data = data.to_str().unwrap();
    let out_path = tmp("stray-out.tma");
    let out = out_path.to_str().unwrap();
    let fit = run(&["fit", data, "other.twc", "--artifact-out", out]);
    assert_eq!(fit.status.code(), Some(1), "{}", stderr(&fit));
    assert!(stderr(&fit).contains("\"other.twc\""), "{}", stderr(&fit));
    assert!(!out_path.exists(), "a rejected fit wrote {out}");
    let predict = run(&[
        "predict",
        "stray",
        "--artifact-in",
        artifact.to_str().unwrap(),
        "--origin",
        "Sydney",
        "--dest",
        "Melbourne",
    ]);
    assert_eq!(predict.status.code(), Some(1), "{}", stderr(&predict));
    assert!(
        stderr(&predict).contains("\"stray\""),
        "{}",
        stderr(&predict)
    );
    assert!(stdout(&predict).is_empty(), "{}", stdout(&predict));
    std::fs::remove_file(data).ok();
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn epidemic_command_runs_with_restriction() {
    let path = generated("epi.jsonl", &["--users", "3000", "--seed", "8"]);
    let artifact = fitted(&path, &[]);
    let out = run(&[
        "epidemic",
        "--artifact-in",
        artifact.to_str().unwrap(),
        "--beta",
        "0.5",
        "--gamma",
        "0.2",
        "--days",
        "120",
        "--restrict",
        "30:0.1",
        "--seed-city",
        "Melbourne",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Melbourne"));
    assert!(text.contains("arrival(day)"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&artifact).ok();
}

/// A reader that stops reading is not a crash. Each command's stdout is
/// a pipe whose read end is closed before the command writes a byte, as
/// `| head -1` leaves it once `head` has its line: the write fails with
/// a broken pipe, and the command ends quietly with status 0 where a
/// `println!` would panic and exit 101.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    let data = generated("closed-stdout.twc", &["--users", "2000", "--seed", "5"]);
    let artifact = fitted(&data, &[]);
    let (data_arg, artifact_arg) = (data.to_str().unwrap(), artifact.to_str().unwrap());
    for args in [
        &["summary", data_arg][..],
        &["epidemic", "--artifact-in", artifact_arg],
        &[
            "predict",
            "--artifact-in",
            artifact_arg,
            "--origin",
            "Sydney",
            "--top",
            "20",
        ],
        &["help"],
        &["paper", "table1", "--users", "200"],
    ] {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tweetmob");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for tweetmob");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert!(out.status.success(), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&artifact).ok();
}

/// A closed stderr is not a crash either. An error message (an unknown
/// command) and a `--trace` tree each go to a stderr pipe whose read end
/// is closed before the command starts writing: the text is lost, and
/// the command ends with its own status, not a panic's 101.
#[test]
fn closed_stderr_is_not_a_panic() {
    let data = generated("closed-stderr.twc", &["--users", "2000", "--seed", "5"]);
    for (args, code) in [
        (&["frobnicate"][..], 1),
        (&["summary", data.to_str().unwrap(), "--trace"], 0),
    ] {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn tweetmob");
        drop(child.stderr.take());
        let status = child.wait().expect("wait for tweetmob");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn export_writes_machine_readable_results() {
    let data = generated("export.jsonl", &["--users", "4000", "--seed", "13"]);
    let out_json = tmp("export-results.json");
    let out = run(&["export", data.to_str().unwrap(), out_json.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&out_json).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc["n_users"], 4000);
    assert_eq!(doc["scales"].as_array().unwrap().len(), 3);
    assert_eq!(doc["scales"][0]["scale"], "National");
    assert!(doc["scales"][0]["mobility"]["gravity2"]["gamma"]
        .as_f64()
        .is_some());
    assert!(doc["pooled_population_correlation"]["r"].as_f64().unwrap() > 0.5);
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&out_json).ok();
}

#[test]
fn metrics_out_writes_stage_spans_and_counters() {
    let data = generated("metrics.jsonl", &["--users", "1200", "--seed", "3"]);
    let metrics = tmp("metrics-out.json");
    let out = run(&[
        "mobility",
        data.to_str().unwrap(),
        "--scale",
        "national",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("wrote pipeline metrics"), "{err}");
    assert!(
        err.contains("load"),
        "trace should list the load span: {err}"
    );
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    for span in [
        "load",
        "load/read_jsonl",
        "trips",
        "population",
        "odmatrix",
        "fit/gravity4",
        "fit/gravity2",
        "fit/radiation",
        "fit/opportunities",
        "evaluate",
        "manifest/stamp",
    ] {
        assert!(
            doc["timing"]["spans"].get(span).is_some(),
            "missing span {span}"
        );
    }
    let tweets_read = doc["counters"]["data/tweets_read"].as_u64().unwrap();
    assert!(tweets_read > 0);
    assert!(doc["counters"]["trips/extracted"].as_u64().unwrap() > 0);
    let in_area = doc["counters"]["trips/tweets_in_area"].as_u64().unwrap();
    assert!(
        0 < in_area && in_area <= tweets_read,
        "{in_area} of {tweets_read}"
    );
    assert!(doc["gauges"]["odmatrix/nonzero_pairs"].as_f64().unwrap() > 0.0);

    // `summary` times its statistics and each funnel scan; `fit` times
    // the artifact write, the counterpart of `artifact_in`.
    let artifact = tmp("metrics-out.tma");
    for (command, extra, spans) in [
        (
            "summary",
            &[][..],
            &[
                "load",
                "summary",
                "funnel/national",
                "funnel/state",
                "funnel/metropolitan",
            ][..],
        ),
        (
            "fit",
            &["--artifact-out", artifact.to_str().unwrap()][..],
            &["load", "trips", "artifact_out", "manifest/stamp"][..],
        ),
    ] {
        let mut argv = vec![command, data.to_str().unwrap()];
        argv.extend_from_slice(extra);
        argv.extend_from_slice(&["--metrics-out", metrics.to_str().unwrap()]);
        let out = run(&argv);
        assert!(out.status.success(), "{command}: {}", stderr(&out));
        let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        for span in spans {
            assert!(
                doc["timing"]["spans"].get(span).is_some(),
                "{command}: missing span {span}"
            );
        }
    }
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&artifact).ok();
}

/// Zeroes every `*_ns` field (span durations and latency histograms) so
/// two runs can be compared on everything else.
fn redact_durations(v: &mut Json) {
    match v {
        Json::Obj(map) => {
            for (k, val) in map.iter_mut() {
                if k.ends_with("_ns") {
                    *val = Json::Int(0);
                } else {
                    redact_durations(val);
                }
            }
        }
        Json::Arr(a) => a.iter_mut().for_each(redact_durations),
        _ => {}
    }
}

#[test]
fn metrics_identical_across_same_seed_runs_modulo_durations() {
    let data = generated("det.jsonl", &["--users", "900", "--seed", "21"]);
    let mut docs = Vec::new();
    for name in ["det-a.json", "det-b.json"] {
        let metrics = tmp(name);
        let out = run(&[
            "mobility",
            data.to_str().unwrap(),
            "--scale",
            "national",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let mut doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        redact_durations(&mut doc);
        docs.push(doc);
        std::fs::remove_file(&metrics).ok();
    }
    assert_eq!(
        docs[0], docs[1],
        "same-seed runs must agree on everything but durations"
    );
    std::fs::remove_file(&data).ok();
}

/// Drops the `par/<stage>/*` gauges: they describe execution shape
/// (thread and chunk counts) and differ across thread counts by design.
fn redact_par_gauges(v: &mut Json) {
    if let Json::Obj(doc) = v {
        if let Some(Json::Obj(gauges)) = doc.get_mut("gauges") {
            gauges.retain(|k, _| !k.starts_with("par/"));
        }
    }
}

/// Drops manifest fields that differ between the runs by construction:
/// the per-run output path appears in `args` and `outputs`, and
/// `threads` is the variable under test. Everything else in the
/// manifest — input fingerprints, subcommand, crate versions — must
/// still agree.
fn redact_run_identity(v: &mut Json) {
    if let Json::Obj(doc) = v {
        if let Some(Json::Obj(m)) = doc.get_mut("manifest") {
            m.retain(|k, _| !matches!(k.as_str(), "args" | "threads" | "outputs"));
        }
    }
}

#[test]
fn results_byte_identical_across_thread_counts() {
    let data = generated("threads.jsonl", &["--users", "4000", "--seed", "17"]);
    let mut exports = Vec::new();
    let mut metric_docs = Vec::new();
    for (name, threads) in [("threads-1", "1"), ("threads-8", "8")] {
        let out_json = tmp(&format!("{name}.json"));
        let metrics = tmp(&format!("{name}-metrics.json"));
        let out = run(&[
            "export",
            data.to_str().unwrap(),
            out_json.to_str().unwrap(),
            "--threads",
            threads,
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            stderr(&out)
        );
        exports.push(std::fs::read(&out_json).unwrap());
        let mut doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        redact_durations(&mut doc);
        redact_par_gauges(&mut doc);
        redact_run_identity(&mut doc);
        metric_docs.push(doc);
        std::fs::remove_file(&out_json).ok();
        std::fs::remove_file(&metrics).ok();
    }
    assert_eq!(
        exports[0], exports[1],
        "exported results must be byte-identical at 1 vs 8 threads"
    );
    assert_eq!(
        metric_docs[0], metric_docs[1],
        "metrics must agree modulo durations and par/ execution-shape gauges"
    );

    // The TWEETMOB_THREADS env var is an equivalent control.
    let out_json = tmp("threads-env.json");
    let out = bin()
        .args(["export", data.to_str().unwrap(), out_json.to_str().unwrap()])
        .env("TWEETMOB_THREADS", "8")
        .output()
        .expect("spawn tweetmob");
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&out_json).unwrap(),
        exports[0],
        "env-pinned run must match the flag-pinned runs"
    );
    std::fs::remove_file(&out_json).ok();
    std::fs::remove_file(&data).ok();
}

#[test]
fn bad_threads_value_reports_the_flag() {
    let out = run(&["summary", "/tmp/whatever.jsonl", "--threads", "zero"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("threads"));
    let out = run(&["summary", "/tmp/whatever.jsonl", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("threads"));
}

#[test]
fn thread_count_above_the_bound_is_a_usage_error() {
    // 10 users stay below every stage's parallel threshold, so even a
    // regressed bound would start no thread here.
    let path = tmp("threads-bound.jsonl");
    let out = run(&[
        "generate",
        path.to_str().unwrap(),
        "--users",
        "10",
        "--threads",
        "100000",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("--threads \"100000\": expected a positive integer at most 256"),
        "{err}"
    );
    assert!(!path.exists(), "a rejected run must write nothing");
}

#[test]
fn failed_command_still_emits_metrics() {
    let bad = tmp("bad.jsonl");
    std::fs::write(&bad, "not json\n").unwrap();
    let metrics = tmp("bad-metrics.json");
    let out = run(&[
        "summary",
        bad.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains(bad.to_str().unwrap()),
        "error names the path: {err}"
    );
    assert!(
        err.contains("line 1"),
        "error names the failing record: {err}"
    );
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc["counters"]["data/load_errors"], 1);
    // The failure document still carries the partial span tree (the
    // `load` span that was open when the run died), the run manifest
    // with the corrupt input stamped, and the outcome gauge.
    assert_eq!(doc["gauges"]["run/outcome"], 1);
    assert_eq!(doc["manifest"]["outcome"], "error");
    assert_eq!(doc["manifest"]["subcommand"], "summary");
    assert_eq!(
        doc["manifest"]["inputs"][0]["path"],
        Json::from(bad.to_str().unwrap())
    );
    assert_eq!(doc["manifest"]["inputs"][0]["bytes"], 9);
    assert!(doc["timing"]["spans"]["load"]["calls"].as_u64().is_some());
    std::fs::remove_file(&bad).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn successful_run_manifest_records_outcome_inputs_and_seed() {
    let data = tmp("manifest.jsonl");
    let metrics = tmp("manifest-metrics.json");
    assert!(run(&[
        "generate",
        data.to_str().unwrap(),
        "--users",
        "400",
        "--seed",
        "23",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ])
    .status
    .success());
    let doc = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc["gauges"]["run/outcome"], 0);
    let manifest = &doc["manifest"];
    assert_eq!(manifest["subcommand"], "generate");
    assert_eq!(manifest["outcome"], "ok");
    assert_eq!(manifest["seed"], 23);
    assert_eq!(manifest["schema_version"], 1);
    // Normalized args: positional + sorted flags, no --metrics-out.
    let args: Vec<&str> = manifest["args"]
        .as_array()
        .unwrap()
        .iter()
        .map(|a| a.as_str().unwrap())
        .collect();
    assert_eq!(
        args,
        vec![data.to_str().unwrap(), "--seed=23", "--users=400"]
    );
    // The generated dataset is stamped as an output with its hash.
    let outputs = manifest["outputs"].as_array().unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0]["path"], Json::from(data.to_str().unwrap()));
    assert_eq!(
        outputs[0]["bytes"].as_u64().unwrap(),
        std::fs::metadata(&data).unwrap().len()
    );
    assert_eq!(outputs[0]["fnv1a64"].as_str().unwrap().len(), 16);
    assert!(manifest["threads"].as_u64().unwrap() >= 1);
    assert!(manifest["crates"]["tweetmob-cli"].as_str().is_some());
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn redacted_metrics_byte_identical_across_thread_counts() {
    let data = generated("redacted.jsonl", &["--users", "2500", "--seed", "31"]);
    let mut docs = Vec::new();
    let mut stacks = Vec::new();
    for (name, threads) in [("red-1", "1"), ("red-8", "8")] {
        let metrics = tmp(&format!("{name}.json"));
        let folded = tmp(&format!("{name}.folded"));
        let out = run(&[
            "mobility",
            data.to_str().unwrap(),
            "--scale",
            "national",
            "--threads",
            threads,
            "--metrics-redacted",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            folded.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        docs.push(std::fs::read(&metrics).unwrap());
        stacks.push(std::fs::read(&folded).unwrap());
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&folded).ok();
    }
    // No JSON-level normalization: the redacted document — including
    // the span calls and the manifest — must already be byte-stable.
    assert_eq!(
        docs[0], docs[1],
        "redacted metrics must be byte-identical at 1 vs 8 threads"
    );
    assert_eq!(
        stacks[0], stacks[1],
        "redacted stacks must be byte-identical at 1 vs 8 threads"
    );
    std::fs::remove_file(&data).ok();
}

#[test]
fn trace_out_writes_collapsed_stacks_whatever_the_extension() {
    let data = generated("traceout.jsonl", &["--users", "600", "--seed", "12"]);
    for name in ["trace.json", "trace.folded"] {
        let path = tmp(name);
        let out = run(&[
            "mobility",
            data.to_str().unwrap(),
            "--trace-out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut frames = Vec::new();
        for line in text.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
            weight.parse::<u64>().expect("numeric weight");
            frames.push(stack);
        }
        assert!(frames.contains(&"load;read_jsonl"), "{name}: {text}");
        assert!(frames.contains(&"fit/gravity4"), "{name}: {text}");
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn fit_embeds_provenance_and_provenance_command_verifies_it() {
    let data = generated("prov.jsonl", &["--users", "1200", "--seed", "19"]);
    let artifact = fitted(&data, &["--scale", "national"]);

    // provenance prints the embedded manifest and verifies the input.
    let out = run(&["provenance", artifact.to_str().unwrap()]);
    assert!(out.status.success(), "provenance: {}", stderr(&out));
    let manifest = Json::parse(&stdout(&out)).unwrap();
    assert_eq!(manifest["subcommand"], "fit");
    assert_eq!(manifest["schema_version"], 1);
    assert_eq!(
        manifest["inputs"][0]["path"],
        Json::from(data.to_str().unwrap())
    );
    // Portable: no execution-shape or output fields inside an artifact.
    assert!(manifest.get("threads").is_none());
    assert!(manifest.get("outputs").is_none());
    assert!(manifest.get("outcome").is_none());
    let err = stderr(&out);
    assert!(err.contains("verified"), "{err}");

    // Tampering with the recorded input is detected.
    let mut bytes = std::fs::read(&data).unwrap();
    bytes.push(b'\n');
    std::fs::write(&data, &bytes).unwrap();
    let out = run(&["provenance", artifact.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("MISMATCH"), "{}", stderr(&out));

    // The fitted artifact loads and predicts regardless.
    let out = run(&[
        "predict",
        "--artifact-in",
        artifact.to_str().unwrap(),
        "--origin",
        "Sydney",
        "--top",
        "3",
    ]);
    assert!(out.status.success(), "predict: {}", stderr(&out));
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn artifacts_byte_identical_across_thread_counts_with_provenance() {
    let data = generated("prov-threads.jsonl", &["--users", "1500", "--seed", "29"]);
    let mut artifacts = Vec::new();
    for (name, threads) in [("prov-t1", "1"), ("prov-t8", "8")] {
        let artifact = tmp(&format!("{name}.tma"));
        let out = run(&[
            "fit",
            data.to_str().unwrap(),
            "--artifact-out",
            artifact.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        artifacts.push(std::fs::read(&artifact).unwrap());
        std::fs::remove_file(&artifact).ok();
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "PROV-carrying artifacts must stay byte-identical across thread counts"
    );
    std::fs::remove_file(&data).ok();
}

/// A write whose bytes never reach the device is a failed command: the
/// writers flush and report the flush's error instead of dropping it.
#[cfg(unix)]
#[test]
fn writes_into_a_full_device_fail_with_an_io_error() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let full = |name: &str| {
        let link = tmp(name);
        std::fs::remove_file(&link).ok();
        std::os::unix::fs::symlink("/dev/full", &link).unwrap();
        link
    };
    let twc = full("full.twc");
    let generate = run(&["generate", "--users", "3", twc.to_str().unwrap()]);
    assert_eq!(generate.status.code(), Some(1), "{}", stdout(&generate));
    assert!(
        stderr(&generate).contains("i/o failure"),
        "{}",
        stderr(&generate)
    );
    assert!(
        !stderr(&generate).contains("tweetmob help"),
        "{}",
        stderr(&generate)
    );
    assert!(
        !stdout(&generate).contains("wrote"),
        "{}",
        stdout(&generate)
    );

    let data = generated("full-input.twc", &["--users", "300", "--seed", "5"]);
    let tma = full("full.tma");
    let fit = run(&[
        "fit",
        data.to_str().unwrap(),
        "--artifact-out",
        tma.to_str().unwrap(),
    ]);
    assert_eq!(fit.status.code(), Some(1), "{}", stdout(&fit));
    assert!(stderr(&fit).contains("i/o failure"), "{}", stderr(&fit));
    assert!(!stdout(&fit).contains("artifact:"), "{}", stdout(&fit));

    // A full stdout is a failed write, not a reader that went away.
    let dev_full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let help = bin()
        .arg("help")
        .stdout(dev_full)
        .output()
        .expect("spawn tweetmob");
    assert_eq!(help.status.code(), Some(1), "{}", stderr(&help));
    assert!(
        stderr(&help).contains("error: cannot write to stdout"),
        "{}",
        stderr(&help)
    );
    for path in [twc, tma, data] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn missing_file_reports_cleanly() {
    let out = run(&["summary", "/nonexistent/nowhere.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot open"));
}

#[test]
fn bad_flag_values_report_the_flag() {
    let out = run(&["generate", "/tmp/x.jsonl", "--users", "many"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("users"));

    let path = generated("flags.jsonl", &["--users", "200"]);
    let path_str = path.to_str().unwrap();
    let out = run(&["population", path_str, "--scale", "galactic"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown scale"));
    let artifact = fitted(&path, &[]);
    let artifact_str = artifact.to_str().unwrap();
    let out = run(&[
        "epidemic",
        "--artifact-in",
        artifact_str,
        "--restrict",
        "nonsense",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("DAY:FACTOR"));
    let out = run(&[
        "epidemic",
        "--artifact-in",
        artifact_str,
        "--seed-city",
        "Atlantis",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("Atlantis"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn population_rejects_a_radius_that_is_not_positive_and_finite() {
    let path = generated("radius.jsonl", &["--users", "200"]);
    let path_str = path.to_str().unwrap();
    for radius in ["0", "-1", "NaN", "inf"] {
        let out = run(&["population", path_str, "--radius", radius]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--radius {radius}: {err}");
        assert!(!err.contains("panicked"), "--radius {radius}: {err}");
        assert!(err.contains("--radius"), "--radius {radius}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn epidemic_rejects_an_unbounded_horizon() {
    let path = generated("epi-inf.jsonl", &["--users", "1500", "--seed", "8"]);
    let artifact = fitted(&path, &[]);
    // 1e12 days is finite, but would be a 4·10¹²-step timeline.
    for days in ["inf", "1e12"] {
        let out = run(&[
            "epidemic",
            "--artifact-in",
            artifact.to_str().unwrap(),
            "--days",
            days,
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--days {days}: {err}");
        assert!(
            err.contains("days must be finite and at most 3650"),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&artifact).ok();
}

/// Kills the serve child on drop so a failed assertion can't leak it.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn http_get(addr: &str, target: &str) -> (u16, String) {
    use std::io::{BufRead, BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to serve child");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8"))
}

#[test]
fn serve_answers_http_queries_in_parity_with_predict_json() {
    use std::io::BufRead;

    let data = generated("serve.twc", &["--users", "1500", "--seed", "13"]);
    let artifact = fitted(&data, &[]);

    // Bind port 0 and read the resolved address off the first line.
    let mut child = ServeChild(
        bin()
            .args([
                "serve",
                "--artifact-in",
                artifact.to_str().unwrap(),
                "--bind",
                "127.0.0.1:0",
                "--threads",
                "2",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve"),
    );
    let mut first_line = String::new();
    std::io::BufReader::new(child.0.stdout.take().expect("child stdout"))
        .read_line(&mut first_line)
        .expect("listening line");
    assert!(first_line.starts_with("listening on "), "{first_line}");
    let addr = first_line
        .split_ascii_whitespace()
        .nth(2)
        .expect("address token")
        .to_string();

    // Golden parity: the HTTP body is byte-identical to what
    // `tweetmob predict --json` prints for the same query.
    let out = run(&[
        "predict",
        "--artifact-in",
        artifact.to_str().unwrap(),
        "--origin",
        "Sydney",
        "--dest",
        "Melbourne",
        "--json",
    ]);
    assert!(out.status.success(), "predict: {}", stderr(&out));
    let golden = stdout(&out);
    let (status, body) = http_get(&addr, "/predict?origin=Sydney&dest=Melbourne");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, golden.trim_end());

    // Top-k parity too.
    let out = run(&[
        "predict",
        "--artifact-in",
        artifact.to_str().unwrap(),
        "--origin",
        "Sydney",
        "--top",
        "3",
        "--model",
        "gravity2",
        "--json",
    ]);
    assert!(out.status.success(), "predict top: {}", stderr(&out));
    let (status, body) = http_get(&addr, "/top_k?origin=Sydney&k=3&model=gravity2");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, stdout(&out).trim_end());

    // Health, provenance and error paths over the same child.
    let (status, body) = http_get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    let (status, body) = http_get(&addr, "/provenance");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"subcommand\""), "{body}");
    let (status, body) = http_get(&addr, "/predict?origin=Atlantis&dest=Sydney");
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_get(&addr, "/predict?origin=Sydney&dest=Sydney");
    assert_eq!(status, 400, "{body}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&artifact).ok();
}
