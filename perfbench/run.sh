#!/usr/bin/env bash
# Builds the benchmark (and the shard driver's worker, which must sit next
# to it) in release mode, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rmat18-rayon --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Honors CARGO_TARGET_DIR.
set -euo pipefail
cargo build --release --quiet --manifest-path perfbench/Cargo.toml --bins
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
