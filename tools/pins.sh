#!/usr/bin/env bash
# Pinned outputs: every byte-deterministic output of the workspace (the
# paper's tables and figures, traces, snapshots, matrices and reports) is a
# pure function of the source tree on the virtual clock, and
# baselines/OUTPUTS.sha256 pins each one by digest.
#
#   tools/pins.sh           build once, run every manifest line twice (in
#                           target/pins/run1 and target/pins/run2), check
#                           both runs and the committed copies
#   tools/pins.sh refresh   build once, run every line once, rewrite the
#                           digests and the committed copies from that run
#
# Each manifest line runs in its own directory, target/pins/runN/<dir>, and
# digest paths are relative to target/pins/runN. A line's stdout is one of
# its outputs, <dir>/stdout.txt; its stderr goes to target/pins/runN.logs/.
# The check fails when a command exits nonzero, a digest differs, a listed
# output is missing, or a run writes a file that is not listed. Refresh only
# after an output moved on purpose. See docs/TESTING.md "Pinned outputs".
set -euo pipefail
cd "$(dirname "$0")/.."

digests=baselines/OUTPUTS.sha256
# The release binaries, as seen from target/pins/runN/<dir>.
bin=../../../release

# Outputs that are also committed: "<path in a run> <path in the repo>".
committed="fuzz/FUZZ_rc.json baselines/FUZZ_rc.json
fault-matrix/FAULTMATRIX_rc.json baselines/FAULTMATRIX_rc.json
parallel-matrix/PARALLELMATRIX_rc.json baselines/PARALLELMATRIX_rc.json
trajectory/target/experiments/BENCH_baseline.json baselines/BENCH_baseline.json
experiments/EXPERIMENTS.md EXPERIMENTS.md"

# pin <dir> <command>: runs one manifest line in $run/<dir>, its stdout
# written to $run/<dir>/stdout.txt and its stderr to $run.logs/<dir>.log.
# Chain commands with && so any failure counts.
pin() {
    mkdir -p "$run/$1"
    if ! (cd "$run/$1" && eval "$2") > "$run/$1/stdout.txt" 2> "$run.logs/$1.log"; then
        echo "pins: $run/$1 failed: $2" >&2
        tail -n 20 "$run/$1/stdout.txt" "$run.logs/$1.log" >&2
        exit 1
    fi
}

manifest() {
    # rc-fuzz exits 1 on any oracle violation.
    pin fuzz "$bin/rc-fuzz --seeds 64 --json --no-write > FUZZ_rc.json"
    pin fuzz-dump "$bin/rc-fuzz --dump 7 --size 8 --violations > seed7_size8.rc"
    # rc-bench experiments writes EXPERIMENTS.md and target/experiments/ here.
    pin telemetry "$bin/rc-bench experiments --scale 1 --profile --trace target/experiments/events.jsonl"
    pin trajectory "$bin/rc-bench experiments --scale 1 --sample"
    pin experiments "$bin/rc-bench experiments --profile --sample"
    pin ablations "$bin/rc-bench ablations --scale 1 --profile --trace events.jsonl > ablations.txt"
    pin quickstart "$bin/examples/quickstart > quickstart.txt"
    pin trace-cfrac "$bin/rc-bench trace-export --workload cfrac --config qs --scale 1 --out trace_cfrac_qs.json"
    pin trace-moss "$bin/rc-bench trace-export --workload moss --config qs --scale 1 --out trace_moss_qs.json"
    pin trace-par-s9 "$bin/rc-bench trace-export --parallel --workload moss --tasks 4 --det-seed 9 \
        --out trace_par_moss_s9.json"
    pin trace-par-s1732584193 "$bin/rc-bench trace-export --parallel --workload moss --tasks 4 \
        --det-seed 1732584193 --out trace_par_moss_s1732584193.json"
    # critpath exits 1 when the work/span identities fail.
    pin critpath-s9 "$bin/rc-bench critpath --workload moss --tasks 4 --det-seed 9 --out critpath_moss_s9.json"
    pin critpath-s1732584193 "$bin/rc-bench critpath --workload moss --tasks 4 --det-seed 1732584193 \
        --out critpath_moss_s1732584193.json"
    pin snap-cfrac-qs "$bin/rc-bench inspect dump --workload cfrac --config qs --scale 1 --out snap_cfrac_qs.json"
    pin snap-moss-qs "$bin/rc-bench inspect dump --workload moss --config qs --scale 1 --out snap_moss_qs.json"
    # A diff without site deltas means attribution broke, not that the heaps agree.
    pin snap-diff "$bin/rc-bench inspect dump --workload cfrac --config gc --scale 1 --out snap_cfrac_gc.json &&
        $bin/rc-bench inspect dump --workload cfrac --config lea --scale 1 --out snap_cfrac_lea.json &&
        $bin/rc-bench inspect diff snap_cfrac_lea.json snap_cfrac_gc.json > snap_cfrac_diff.txt &&
        grep -q 'site deltas' snap_cfrac_diff.txt &&
        grep -q 'identity holds on both sides' snap_cfrac_diff.txt"
    # The matrices exit 1 when their gates fail.
    pin fault-matrix "$bin/rc-bench fault-matrix --scale 1 --out FAULTMATRIX_rc.json"
    pin recovery-matrix "$bin/rc-bench recovery-matrix --scale 1 --out RECOVERYMATRIX_rc.json"
    pin recovery-diff "$bin/rc-bench recovery-matrix --scale 1 --dump-pair . &&
        $bin/rc-bench inspect diff recovery_trap.json recovery_exit.json > recovery_diff.txt &&
        grep -q 'site deltas' recovery_diff.txt"
    pin parallel-matrix "$bin/rc-bench parallel-matrix --scale 1 --out PARALLELMATRIX_rc.json"
}

# run_manifest <name>: runs every manifest line under target/pins/<name>.
run_manifest() {
    run=target/pins/$1
    rm -rf "$run" "$run.logs"
    mkdir -p "$run.logs"
    echo "pins: running the manifest in $run"
    manifest
}

# --target-dir keeps the binaries where $bin looks, whatever the environment says.
build() { cargo build --release --workspace --bins --examples --target-dir target; }

# The files a run wrote, one path per line, sorted.
outputs() { (cd "$1" && find . -type f | sed 's|^\./||' | LC_ALL=C sort); }

case "${1:-}" in
"")
    build
    run_manifest run1
    run_manifest run2
    status=0
    for run in target/pins/run1 target/pins/run2; do
        echo "pins: checking $run"
        (cd "$run" && sha256sum --check --quiet --strict "../../../$digests") || status=1
        diff <(cut -c67- "$digests" | LC_ALL=C sort) <(outputs "$run") \
            || { echo "pins: $run wrote outputs that are not listed (>) or missed listed ones (<)" >&2; status=1; }
    done
    echo "pins: checking the committed copies"
    while read -r from to; do
        echo "$(awk -v p="$from" '$2 == p { print $1 }' "$digests")  $to"
    done <<< "$committed" | sha256sum --check --quiet --strict || status=1
    [ "$status" -eq 0 ] && echo "pins: OK ($(wc -l < "$digests") outputs, identical in both runs)"
    exit "$status"
    ;;
refresh)
    build
    run_manifest run1
    outputs target/pins/run1 | (cd target/pins/run1 && xargs sha256sum) > "$digests"
    while read -r from to; do cp "target/pins/run1/$from" "$to"; done <<< "$committed"
    echo "pins: rewrote $digests ($(wc -l < "$digests") outputs) and the committed copies"
    ;;
*)
    echo "usage: tools/pins.sh [refresh]" >&2
    exit 2
    ;;
esac
