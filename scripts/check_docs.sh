#!/usr/bin/env bash
# The docs and the CI workflow may only point at things that exist:
# every `results/<file>`, every `--bin bench -- <subcommand>` and every
# experiment name (`--bin experiments -- NAME…`, or a backticked
# `experiments NAME…`) named in README.md, DESIGN.md, EXPERIMENTS.md,
# .github/workflows/ci.yml or the verify skill must be a checked-in
# file / a subcommand the bench binary dispatches / `all` or a name in
# the experiments binary's EXPERIMENTS table (nobody can run Actions
# offline, so a job naming a deleted artifact has to fail here). Reads
# sources only — nothing is built or run.
#
#   scripts/check_docs.sh     exit 1 listing each dangling reference
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md .github/workflows/ci.yml .claude/skills/verify/SKILL.md)
bench_main=crates/bench/src/bin/bench.rs
experiments_main=crates/bench/src/bin/experiments.rs
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

# The EXPERIMENTS table's rows: `("name", runner),`.
experiments=" all $(grep -oE '^ *\("[a-z0-9_]+",' "$experiments_main" | tr -d ' (",' | tr '\n' ' ')"
while IFS=: read -r doc line ref; do
    for name in ${ref#*experiments}; do
        if [ "$name" != "--" ] && [[ "$experiments" != *" $name "* ]]; then
            echo "$doc:$line: \`experiments $name\` is not an experiment of $experiments_main"
            bad=1
        fi
    done
done < <(grep -noE -e '(--bin |`)experiments( --)?( [a-z][a-z0-9_]*)+' "${docs[@]}" | sort -u)

exit "$bad"
