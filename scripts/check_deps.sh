#!/usr/bin/env bash
# No dependency is dead weight in the build graph or the lock file:
#
# * every `[dependencies]` entry of a crates/*/Cargo.toml is used: its
#   name, with `-` mapped to `_`, appears as `name::` or `use name`
#   somewhere under that crate's src/;
# * every `[workspace.dependencies]` entry of the root Cargo.toml is
#   named by a dependency table of some workspace manifest (the root,
#   crates/*, vendor/*);
# * every vendor/* package is named by a dependency table of some
#   manifest (those, or benchmark/Cargo.toml, which names vendored
#   crates by path). A `[workspace.dependencies]` entry alone does not
#   count: it declares a dependency, it does not take one.
#
# Reads sources only — nothing is built or run.
#
#   scripts/check_deps.sh     exit 1 listing each unused dependency
set -euo pipefail
cd "$(dirname "$0")/.."

# Entry names of a manifest's `[dependencies]` table: `name.workspace =
# true`, `name = "1"` or `name = { … }`.
crate_deps() {
    awk '/^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$1"
}

# Entry names of every dependency table of the manifests given —
# normal, dev and build, target-specific ones included — but not of
# `[workspace.dependencies]`.
dep_names() {
    awk '/^\[/ { in_deps = ($0 != "[workspace.dependencies]" && $0 ~ /dependencies\]$/); next }
        in_deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$@" | sort -u
}

bad=0
for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    for dep in $(crate_deps "$manifest"); do
        name=${dep//-/_}
        if ! grep -rqE "(^|[^A-Za-z0-9_])$name::|use $name([^A-Za-z0-9_]|$)" "$crate/src"; then
            echo "$manifest: $dep is never named in $crate/src"
            bad=1
        fi
    done
done

members=(Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml)
used=$(dep_names "${members[@]}")
declared=$(awk '/^\[/ { in_ws = ($0 == "[workspace.dependencies]"); next }
    in_ws && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' Cargo.toml)
for dep in $declared; do
    if ! grep -qx -- "$dep" <<<"$used"; then
        echo "Cargo.toml: [workspace.dependencies] entry $dep is named by no workspace manifest"
        bad=1
    fi
done

used=$(dep_names "${members[@]}" benchmark/Cargo.toml)
for manifest in vendor/*/Cargo.toml; do
    package=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)
    if ! grep -qx -- "$package" <<<"$used"; then
        echo "$manifest: no manifest depends on vendored $package"
        bad=1
    fi
done

exit "$bad"
