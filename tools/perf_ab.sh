#!/usr/bin/env bash
# A/B wall-clock comparison of the working tree (the change) with a parent
# commit on one rc-perf workload, untraced.
#
#   tools/perf_ab.sh <parent-ref> <workload> <seeds> [seconds]
#
# <seeds> is a range (1-10), one seed, or a comma list (1,3,5); seconds
# defaults to 25. The parent is exported with `git archive` into its own
# checkout, each side's rc-perf is built once into its own target dir, and
# each side runs from its own checkout, alternating: odd seeds run the
# parent first, even seeds the change. The last step is `rc-perf compare`
# of the two sides' result files for these seeds, whose exit status this
# script returns (0 clean, 1 regression).
#
# Everything goes under $PERF_AB_DIR (default target/perf-ab):
#   parent-<sha>/                 the parent's checkout
#   tgt-parent-<sha>/, tgt-change/  the two target dirs
#   <workload>/{parent,change}/   result files, <workload>.seed<N>.json
# A later call with the same parent reuses the checkout and the builds, so
# held-out seeds add runs without rebuilding. For a traced run, call either
# side's binary with `run --workload <w> --seed <s> --trace 1 --out <dir>`
# from that side's checkout.
#
# The runs want the host to themselves: nothing else CPU-heavy meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: tools/perf_ab.sh <parent-ref> <workload> <seeds> [seconds]"
ref=${1:?$usage}
workload=${2:?$usage}
seeds=${3:?$usage}
seconds=${4:-25}

case $seeds in
    *-*) list=$(seq "${seeds%-*}" "${seeds#*-}") ;;
    *) list=${seeds//,/ } ;;
esac

sha=$(git rev-parse --short "$ref^{commit}")
dir=${PERF_AB_DIR:-target/perf-ab}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
parent=$dir/parent-$sha
tgt_parent=$dir/tgt-parent-$sha
tgt_change=$dir/tgt-change
out=$dir/$workload

if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$sha" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi

build() { # build <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path bench/Cargo.toml)
}
echo "perf_ab: building the parent ($sha) and the change" >&2
build "$parent" "$tgt_parent"
build . "$tgt_change"

run() { # run <side> <seed>
    local side=$1 seed=$2 checkout=. bin=$tgt_change/release/rc-perf
    if [ "$side" = parent ]; then
        checkout=$parent
        bin=$tgt_parent/release/rc-perf
    fi
    echo "perf_ab: $workload seed $seed, $side" >&2
    (cd "$checkout" && "$bin" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$out/$side") > /dev/null
}

parents=()
changes=()
for s in $list; do
    if [ $((s % 2)) -eq 1 ]; then
        run parent "$s"
        run change "$s"
    else
        run change "$s"
        run parent "$s"
    fi
    parents+=("$out/parent/$workload.seed$s.json")
    changes+=("$out/change/$workload.seed$s.json")
done

"$tgt_change/release/rc-perf" compare "${parents[@]}" -- "${changes[@]}"
