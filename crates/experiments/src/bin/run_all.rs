//! Runs every experiment binary in sequence (demo scale by default) and
//! collects their JSON records into a directory.
//!
//! This is a convenience driver for regenerating every experiment record:
//!
//! ```text
//! cargo run --release -p snr-experiments --bin run_all -- --json results/
//! ```
//!
//! Each sibling binary is located next to the current executable (they are
//! all built into the same cargo target directory).

use snr_experiments::ExperimentArgs;
use std::path::PathBuf;
use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1_datasets",
    "figure2_pa_deletion",
    "table2_scalability",
    "table3_facebook_enron",
    "figure3_cascade",
    "table4_affiliation",
    "table5_real_world",
    "figure4_degree_curves",
    "attack_experiment",
    "ablation_bucketing_baseline",
    "theory_validation",
];

fn main() {
    let args = ExperimentArgs::from_env();
    let bin_dir: PathBuf = std::env::current_exe()
        .expect("current executable path")
        .parent()
        .expect("executable has a parent directory")
        .to_path_buf();

    let out_dir = args.json.clone().unwrap_or_else(|| PathBuf::from("experiment-results"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }

    let mut failures = 0usize;
    for name in EXPERIMENTS {
        let exe = bin_dir.join(name);
        if !exe.exists() {
            eprintln!(
                "skipping {name}: {} not built (run `cargo build --release -p snr-experiments`)",
                exe.display()
            );
            failures += 1;
            continue;
        }
        println!("\n================================================================");
        println!("=== {name}");
        println!("================================================================\n");
        let json_path = out_dir.join(format!("{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.arg("--seed").arg(args.seed.to_string());
        if args.full {
            cmd.arg("--full");
        }
        cmd.arg("--json").arg(&json_path);
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name} exited with {status}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("failed to launch {name}: {e}");
                failures += 1;
            }
        }
    }

    println!("\nJSON records written to {}", out_dir.display());
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed or were skipped");
        std::process::exit(1);
    }
}
