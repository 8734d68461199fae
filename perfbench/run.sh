#!/usr/bin/env bash
# Builds the benchmark and the release `sixgen` binary that `serve_jobs`
# starts, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload prefix_100k --seed 1 --seconds 15 --trace 0
#
# Both builds honour CARGO_TARGET_DIR; without it the benchmark builds in
# perfbench/target and `sixgen` in target/. Build output goes to stderr,
# so the last line of stdout stays the benchmark's JSON result.
set -euo pipefail

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet --bin sixgen

exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@" \
    --sixgen "${CARGO_TARGET_DIR:-target}/release/sixgen"
