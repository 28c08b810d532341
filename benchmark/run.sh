#!/usr/bin/env bash
# Builds the server under test and the benchmark, then runs the
# benchmark. Run from anywhere; it works from the repository root.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# With no --workload every workload runs in turn. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); scratch files and reports to
# benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cxu-cli --bin cxu >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cxu-benchmark" --cxu "$CARGO_TARGET_DIR/release/cxu" "$@"
