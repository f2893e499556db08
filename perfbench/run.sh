#!/usr/bin/env bash
# Builds the `udsim` daemon and the benchmark harness from this checkout,
# then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); native artifacts and request
# logs go to a scratch directory under it.
set -euo pipefail
root="$(pwd)"
bench="$root/perfbench"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin udsim >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$target/release/uds-perfbench" --udsim "$target/release/udsim" \
    --work-dir "$target/perfbench-work" "$@"
