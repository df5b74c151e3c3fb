//! Runs every paper-regeneration binary in sequence on one shared
//! dataset-equivalent configuration (each binary regenerates its own
//! dataset deterministically from the same seed, so outputs are
//! consistent with running them individually).

use std::process::Command;

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let mut failures = 0;
    for bin in [
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
    ] {
        println!();
        let path = exe_dir.join(bin);
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("failed to launch {} ({e}); build with `cargo build --release -p tweetmob-bench --bins` first", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
