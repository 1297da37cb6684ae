#!/usr/bin/env bash
# Every checked-in `results/*.csv` and the chaos transcript
# `results/chaos_seed193.txt` must be what the code produces: one
# `experiments all --scale 0.0625` run into a temporary directory, then
# a byte comparison of each golden against it. Fails on a golden the
# run no longer writes, a file the run writes that is not checked in,
# and any differing file. `--scale 1` does the same at the paper's own
# geometry against `results/paper_scale/` (≈ 41 s after the build, with
# a peak resident set of 1.32 GB).
#
#   scripts/check_goldens.sh              the σ = 1/16 goldens
#   scripts/check_goldens.sh --scale 1    the σ = 1 goldens
#   exit 1 naming each offending file
set -euo pipefail
cd "$(dirname "$0")/.."

scale=0.0625
results=results
if [ "$#" -gt 0 ]; then
    if [ "$*" != "--scale 1" ]; then
        echo "usage: $0 [--scale 1]" >&2
        exit 2
    fi
    scale=1
    results=results/paper_scale
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cargo run --locked --release -q -p ir-bench --bin experiments -- all --scale "$scale" --out "$out" > /dev/null

bad=0
for golden in "$results"/*.csv "$results"/chaos_seed193.txt; do
    name=$(basename "$golden")
    if [ ! -e "$golden" ]; then
        echo "$golden: missing"
        bad=1
    elif [ ! -e "$out/$name" ]; then
        echo "$golden: the run wrote no $name"
        bad=1
    elif ! cmp -s "$golden" "$out/$name"; then
        echo "$golden: differs from the run's output"
        diff "$golden" "$out/$name" | head -10 || true
        bad=1
    fi
done
for fresh in "$out"/*; do
    name=$(basename "$fresh")
    if [ ! -e "$results/$name" ]; then
        echo "$name: written by the run but not checked in under $results/"
        bad=1
    fi
done
[ "$bad" -eq 0 ] && echo "all $(ls "$results"/*.csv | wc -l) golden CSVs and the chaos transcript match at scale $scale"
exit "$bad"
