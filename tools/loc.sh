#!/usr/bin/env bash
# Non-test code lines: for each path, the lines of the .rs files under it
# that are neither blank nor `//` comments (doc comments included), once
# tools/strip_test_mods.awk has dropped their `#[cfg(test)]` modules, as the
# panic gate does; then the total over all paths.
#
#   tools/loc.sh [path...]    defaults to crates/*/src src
#
# Paths are taken as given, relative to the current directory.
set -euo pipefail

strip="$(dirname "$0")/strip_test_mods.awk"
[ "$#" -gt 0 ] || set -- crates/*/src src
total=0
for path in "$@"; do
    lines=$(find "$path" -type f -name '*.rs' -print0 | xargs -0 -r -n1 awk -f "$strip" \
        | grep -cvE '^[[:space:]]*(//|$)' || true)
    printf '%7d %s\n' "$lines" "$path"
    total=$((total + lines))
done
printf '%7d total\n' "$total"
