#!/bin/bash
# Runs interleaved perfbench pairs: the parent checkout and the changed
# checkout back to back, alternating which goes first, and appends one
# JSON line per run for `tools/bench_compare.py summarize`.
#
#   tools/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS OUT.jsonl
#
# Each checkout builds into its own directory under $BENCH_BUILD_ROOT
# (default: a temporary directory), so the checkouts stay clean.
set -euo pipefail
if [ $# -ne 6 ]; then
  sed -n '2,8p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 out=$6
build_root=${BENCH_BUILD_ROOT:-$(mktemp -d)}
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    result=$(cd "$dir" && CARGO_TARGET_DIR="$build_root/$side" \
      python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds 25 --trace 0 2>/dev/null | tail -1)
    echo "{\"pair\":$pair,\"side\":\"$side\",\"workload\":\"$workload\",\"seed\":$seed,\"result\":$result}" >> "$out"
  done
done
