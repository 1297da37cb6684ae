#!/usr/bin/env bash
# The docs and the CI workflow may only point at things that exist:
# every `results/<file>` and every `--bin bench -- <subcommand>` named
# in README.md, DESIGN.md, EXPERIMENTS.md or .github/workflows/ci.yml
# must be a checked-in file / a subcommand the bench binary dispatches
# (nobody can run Actions offline, so a job naming a deleted artifact
# has to fail here). Reads sources only — nothing is built or run.
#
#   scripts/check_docs.sh     exit 1 listing each dangling reference
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md .github/workflows/ci.yml)
bench_main=crates/bench/src/bin/bench.rs
bad=0

while IFS=: read -r doc line ref; do
    if [ ! -e "$ref" ]; then
        echo "$doc:$line: $ref does not exist"
        bad=1
    fi
done < <(grep -noE 'results/[A-Za-z0-9_.-]*[A-Za-z0-9]' "${docs[@]}" | sort -u)

while IFS=: read -r doc line ref; do
    sub=${ref##* }
    if ! grep -q "Some(\"$sub\") =>" "$bench_main"; then
        echo "$doc:$line: \`bench $sub\` is not a subcommand of $bench_main"
        bad=1
    fi
done < <(grep -noE -e '--bin bench -- [a-z_]+' "${docs[@]}" | sort -u)

exit "$bad"
