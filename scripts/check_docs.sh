#!/usr/bin/env bash
# The docs and the CI workflow may only point at things that exist:
# every `results/<file>`, every `--bin NAME` and every experiment name
# (`--bin experiments -- NAME…`, or a backticked `experiments NAME…`)
# named in README.md, DESIGN.md, EXPERIMENTS.md,
# .github/workflows/ci.yml or the verify skill must be a checked-in
# file / a binary target of a workspace package (a `[[bin]]` of its
# Cargo.toml, or a `src/bin/NAME.rs` Cargo discovers) / `all` or a name
# in the experiments binary's EXPERIMENTS table (nobody can run Actions
# offline, so a job naming a deleted artifact has to fail here). Reads
# sources only — nothing is built or run.
#
#   scripts/check_docs.sh     exit 1 listing each dangling reference
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md .github/workflows/ci.yml .claude/skills/verify/SKILL.md)
experiments_main=crates/bench/src/bin/experiments.rs
bad=0

while IFS=: read -r doc line ref; do
    if [ ! -e "$ref" ]; then
        echo "$doc:$line: $ref does not exist"
        bad=1
    fi
done < <(grep -noE 'results/[A-Za-z0-9_.-]*[A-Za-z0-9]' "${docs[@]}" | sort -u)

bins=" "
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    bins+="$(awk '/^\[\[bin\]\]/ { in_bin = 1 }
        in_bin && /^name *=/ { gsub(/"/, "", $3); print $3; in_bin = 0 }' "$manifest" | tr '\n' ' ')"
    for main in "$(dirname "$manifest")"/src/bin/*.rs; do
        [ -e "$main" ] && bins+="$(basename "$main" .rs) "
    done
done
while IFS=: read -r doc line ref; do
    name=${ref##* }
    if [[ "$bins" != *" $name "* ]]; then
        echo "$doc:$line: \`--bin $name\` is not a binary of any workspace package"
        bad=1
    fi
done < <(grep -noE -e '--bin [A-Za-z0-9_-]+' "${docs[@]}" | sort -u)

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
