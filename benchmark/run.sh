#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is one JSON object
#   benchmark/run.sh [--seed N] [--scale S] [--seconds S] [--trace] [--quick] [--out FILE]
#       all five workloads; prints every metric by name with its unit
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh agree A.json B.json
#
# Run from the root of the checkout (or anywhere: paths are resolved
# from this file). Honors CARGO_TARGET_DIR; builds offline.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-$here/out}"
export BENCH_GIT_HEAD="${BENCH_GIT_HEAD:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$target/release/buffir-benchmark" "$@"
