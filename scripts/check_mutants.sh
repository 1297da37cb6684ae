#!/usr/bin/env bash
# Every planted defect in mutants/ must still be caught. Each line
# `PATCH PACKAGE TEST` of mutants/manifest names a patch that re-plants
# a defect a test once caught, and that test: the patch is applied to a
# scratch `git worktree` of HEAD, the package's tests must still build,
# and `cargo test -p PACKAGE -- TEST` must fail. A patch that no longer
# applies, a planted tree that does not build and a plant the test lets
# through each fail the script, so moving planted code means re-planting
# it. The worktree and its build directory are removed afterwards.
#
#   scripts/check_mutants.sh     exit 1 naming each plant not caught
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

scratch=$(mktemp -d)
tree="$scratch/tree"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
    git -C "$root" worktree prune
    rm -rf "$scratch"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" HEAD
export CARGO_TARGET_DIR="$scratch/target"

bad=0
planted=0
while read -r patch package test <&3; do
    case "$patch" in '' | '#'*) continue ;; esac
    planted=$((planted + 1))
    git -C "$tree" reset --quiet --hard
    if ! git -C "$tree" apply "$root/mutants/$patch"; then
        echo "$patch: no longer applies"
        bad=1
    elif ! (cd "$tree" && cargo test --locked -q -p "$package" --no-run) > "$scratch/log" 2>&1; then
        echo "$patch: the planted tree does not build"
        tail -20 "$scratch/log"
        bad=1
    elif (cd "$tree" && cargo test --locked -q -p "$package" -- "$test") > "$scratch/log" 2>&1; then
        echo "$patch: survived: \`cargo test -p $package -- $test\` passed or ran nothing"
        bad=1
    else
        echo "$patch: caught by $test"
    fi
done 3< mutants/manifest
[ "$bad" -eq 0 ] && echo "all $planted plants caught"
exit "$bad"
