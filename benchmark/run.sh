#!/usr/bin/env bash
# Build ermsbench, run every workload, write benchmark/out/latest.json and,
# when given an earlier document, compare against it.
#
#   benchmark/run.sh [previous.json] [-- extra `run` options, e.g. --seed 7 --reps 5]
#
# Run from the repository root.
set -euo pipefail

previous=""
if [[ $# -gt 0 && "$1" != "--" ]]; then
    previous="$1"
    shift
fi
[[ "${1:-}" == "--" ]] && shift

manifest=benchmark/Cargo.toml
out=benchmark/out/latest.json

cargo build --release --manifest-path "$manifest"
cargo run --release --quiet --manifest-path "$manifest" -- run --out "$out" "$@"
if [[ -n "$previous" ]]; then
    cargo run --release --quiet --manifest-path "$manifest" -- compare "$previous" "$out"
fi
