//! # snr-experiments
//!
//! The experiment harness that regenerates every table and figure of the
//! evaluation section (§5) of Korula & Lattanzi, VLDB 2014. Each binary in
//! `src/bin/` reproduces one table or figure; `run_all` chains them and
//! collects their JSON records (see the README's "Running the experiments").
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1_datasets` | Table 1 — dataset statistics |
//! | `figure2_pa_deletion` | Figure 2 — PA + random deletion sweep |
//! | `table2_scalability` | Table 2 — relative running time on R-MAT |
//! | `table3_facebook_enron` | Table 3 — Facebook & Enron, random deletion |
//! | `figure3_cascade` | Figure 3 — cascade-model copies |
//! | `table4_affiliation` | Table 4 — correlated community deletion |
//! | `table5_real_world` | Table 5 — DBLP, Gowalla, Wikipedia proxies |
//! | `figure4_degree_curves` | Figure 4 — precision/recall vs degree |
//! | `attack_experiment` | §5 "Robustness to attack" |
//! | `ablation_bucketing_baseline` | §5 ablation: bucketing + baseline |
//!
//! Alongside them, the `smoke` binary runs one end-to-end check per
//! subsystem (storage, shuffle, spill, driver, resilience, telemetry,
//! blocking) over the shared fixture in [`smoke`].
//!
//! Real datasets used by the paper (Facebook WOSN'09, Enron, DBLP, Gowalla,
//! Wikipedia dumps, billion-edge R-MAT instances) are not available in this
//! offline environment; [`datasets`] builds synthetic proxies with matching
//! scale and structure; each proxy's docs say why the relevant behaviour is
//! preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod datasets;
pub mod runner;
pub mod smoke;
pub mod validate;

pub use cli::{ExperimentArgs, StoreMode};
pub use runner::{run_user_matching, ExperimentRun};
pub use validate::{check_bench_regressions, validate_record_json, BenchBaseline, BenchRecord};
