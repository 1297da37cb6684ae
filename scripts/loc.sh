#!/usr/bin/env bash
# Non-test, non-comment, non-blank Rust lines under crates/*/src — the
# counting rule the simplicity issues quote. Per file: cut at the first
# `#[cfg(test)]`, then drop blank lines and `//` comment lines.
#
#   scripts/loc.sh            per-crate and workspace totals
#   scripts/loc.sh FILE...    per-file counts and their total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '!/^[[:space:]]*(\/\/|$)/ { n++ } /#\[cfg\(test\)\]/ { exit } END { print n + 0 }' "$1"
}

total=0
if [ "$#" -gt 0 ]; then
    for f in "$@"; do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
else
    for crate in crates/*/; do
        sum=0
        while IFS= read -r f; do
            sum=$((sum + $(count "$f")))
        done < <(find "${crate}src" -name '*.rs' | sort)
        printf '%6d  %s\n' "$sum" "$(basename "$crate")"
        total=$((total + sum))
    done
fi
printf '%6d  total\n' "$total"
