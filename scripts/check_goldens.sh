#!/usr/bin/env bash
# Every checked-in `results/*.csv` must be what the code produces: one
# `experiments all --scale 0.0625` run into a temporary directory, then
# a byte comparison of each golden CSV against it. Fails on a golden the
# run no longer writes, a CSV the run writes that is not checked in, and
# any differing file.
#
#   scripts/check_goldens.sh     exit 1 naming each offending file
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cargo run --locked --release -q -p ir-bench --bin experiments -- all --scale 0.0625 --out "$out" > /dev/null

bad=0
for golden in results/*.csv; do
    name=$(basename "$golden")
    if [ ! -e "$out/$name" ]; then
        echo "$golden: the run wrote no $name"
        bad=1
    elif ! cmp -s "$golden" "$out/$name"; then
        echo "$golden: differs from the run's output"
        diff "$golden" "$out/$name" | head -10 || true
        bad=1
    fi
done
for fresh in "$out"/*.csv; do
    name=$(basename "$fresh")
    if [ ! -e "results/$name" ]; then
        echo "$name: written by the run but not checked in under results/"
        bad=1
    fi
done
[ "$bad" -eq 0 ] && echo "all $(ls results/*.csv | wc -l) golden CSVs match"
exit "$bad"
