#!/usr/bin/env bash
# Prints which symbol of a built binary holds the interpreter's dispatch
# loop, its address and that address mod 64: `Interp::run_code` when the
# compiler kept it as a function of its own, else `Interp::exec`, which it
# was inlined into.
#
#   tools/hotloop.sh <binary>
#
# Code placement alone moves the interpreter-bound workloads by several
# percent, so compare a change with its parent only between binaries whose
# loops sit at the same offset (the verify skill's layout control).
set -euo pipefail

bin=${1:?usage: tools/hotloop.sh <binary>}
syms=$(nm -C "$bin")
line=$(grep -E '::Interp::run_code$' <<<"$syms" | head -n1 || true)
[ -n "$line" ] || line=$(grep -E '::Interp::exec$' <<<"$syms" | head -n1 || true)
if [ -z "$line" ]; then
    echo "hotloop: no Interp::run_code or Interp::exec symbol in $bin" >&2
    exit 1
fi
addr=${line%% *}
name=${line##* }
printf '%s 0x%s mod64=%d\n' "$name" "$addr" $((16#$addr % 64))
