#!/usr/bin/env bash
# Panic gate: non-test region-rt, rlang and rc-lang code must not gain new
# panic sites.
#
# Scans crates/region-rt/src/, crates/rlang/src/ and crates/rc-lang/src/
# for panic!/unreachable!/todo!/unimplemented!/.unwrap()/.expect( and fails if
# any occurrence is not vetted in tools/panic_allowlist.txt. Allowlist
# entries are exact "<file>.rs: <trimmed source line>" strings, so moving a
# vetted site is fine but changing or adding one trips the gate and forces
# review. It also fails on an entry that vets no site any more, so deleted
# code takes its entries with it.
#
# Test code is skipped only where it is a column-0 `#[cfg(test)]` module,
# through the brace that closes it (tools/strip_test_mods.awk); scanning
# resumes after it. Every other `#[cfg(test)]` item, and whatever follows
# it, is scanned like any code. See docs/ROBUSTNESS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=tools/panic_allowlist.txt
status=0
sites=""
shopt -s nullglob

for f in crates/region-rt/src/*.rs crates/region-rt/src/*/*.rs crates/rlang/src/*.rs \
    crates/rc-lang/src/*.rs; do
    # Strip test modules and comment lines, then scan.
    while IFS= read -r line; do
        trimmed=$(printf '%s' "$line" | sed 's/^[[:space:]]*//;s/[[:space:]]*$//')
        key="$(basename "$f"): $trimmed"
        sites+="$key"$'\n'
        if ! grep -qxF -- "$key" "$allowlist"; then
            echo "panic-gate: not allowlisted: $f: $trimmed" >&2
            status=1
        fi
    done < <(awk -f tools/strip_test_mods.awk "$f" \
        | grep -vE '^[[:space:]]*//' \
        | grep -E 'panic!\(|unreachable!\(|todo!\(|unimplemented!\(|\.unwrap\(\)|\.expect\("' \
        || true)
done

while IFS= read -r entry; do
    if ! grep -qxF -- "$entry" <<< "$sites"; then
        echo "panic-gate: stale allowlist entry (vets no site): $entry" >&2
        status=1
    fi
done < "$allowlist"

if [ "$status" -eq 0 ]; then
    echo "panic-gate: OK (every panic site in non-test region-rt, rlang and rc-lang code is allowlisted, every entry vets a site)"
fi
exit "$status"
