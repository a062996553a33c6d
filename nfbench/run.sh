#!/usr/bin/env bash
# Builds numfuzz and the benchmark from source in release mode, then runs
# one benchmark invocation from the repository root:
#
#   bash nfbench/run.sh --workload verdict --seed 1 --seconds 20 --trace 0
#
# `--workload all` runs verdict, certify, optimize and serve in turn, each
# in its own process, and prints each one's result line.
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The server binary comes from the repository's own workspace, exactly as
# `cargo build --release` builds it for users.
cargo build --release --offline --quiet --bin numfuzz >&2
cargo build --release --offline --quiet --manifest-path nfbench/Cargo.toml >&2
bench=("$CARGO_TARGET_DIR/release/nfbench" --numfuzz "$CARGO_TARGET_DIR/release/numfuzz")

args=("$@")
for i in "${!args[@]}"; do
  if [[ "${args[$i]}" == --workload && "${args[$((i + 1))]:-}" == all ]]; then
    status=0
    for w in verdict certify optimize serve; do
      args[i + 1]=$w
      "${bench[@]}" "${args[@]}" || status=1
    done
    exit "$status"
  fi
done
exec "${bench[@]}" "$@"
