#!/usr/bin/env bash
# Every `[dependencies]` entry of a crates/*/Cargo.toml must be used:
# its name, with `-` mapped to `_`, has to appear as `name::` or
# `use name` somewhere under that crate's src/. A dependency nothing
# names is dead weight in the build graph and in the lock file.
# Reads sources only — nothing is built or run.
#
#   scripts/check_deps.sh     exit 1 listing each unused dependency
set -euo pipefail
cd "$(dirname "$0")/.."

bad=0
for manifest in crates/*/Cargo.toml; do
    crate=$(dirname "$manifest")
    # Entry names of the [dependencies] table: `name.workspace = true`,
    # `name = "1"` or `name = { … }`.
    deps=$(awk '/^\[/ { in_deps = ($0 == "[dependencies]"); next }
        in_deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest")
    for dep in $deps; do
        name=${dep//-/_}
        if ! grep -rqE "(^|[^A-Za-z0-9_])$name::|use $name([^A-Za-z0-9_]|$)" "$crate/src"; then
            echo "$manifest: $dep is never named in $crate/src"
            bad=1
        fi
    done
done

exit "$bad"
