#!/usr/bin/env bash
# Build the pmaxt program and the benchmark harness from source, then run one
# benchmark workload.
#
#   bash perfbench/run.sh --workload <paper_run|shard_stream|serve_mix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p sprint-repro --bin pmaxt >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/perfbench" --pmaxt "$CARGO_TARGET_DIR/release/pmaxt" "$@"
