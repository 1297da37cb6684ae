#!/usr/bin/env bash
# Smoke check: two quick traced runs of the same code on the same seed
# must name every metric in the catalogue (tests/catalogue.rs ties the
# catalogue to BENCHMARK.json) and agree bit-for-bit on stream digests
# and on every single-session count and answer digest.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${BENCH_OUT_DIR:-$here/out}"

"$here/run.sh" --quick --trace --out "$out/check-a.json" >/dev/null
"$here/run.sh" --quick --trace --out "$out/check-b.json" >/dev/null
"$here/run.sh" agree "$out/check-a.json" "$out/check-b.json"
