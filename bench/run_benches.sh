#!/usr/bin/env bash
# Runs every bench binary found in a build tree sequentially, merging their
# machine-readable output into one JSON file (see EXPERIMENTS.md).
#
# Usage: bench/run_benches.sh BUILD_DIR OUT_JSON [--quick] [EXTRA_ARGS...]
#
# EXTRA_ARGS are passed through to every bench invocation; the literal
# token `{bench}` inside an extra arg is replaced with the bench's name,
# so e.g.
#   bench/run_benches.sh build out.json --quick --metrics=/tmp/{bench}.prom
# writes one telemetry snapshot per bench. Benches ignore flags they do not
# know.
#
# Sequential on purpose: the benches merge into one file, and concurrent
# writers would race. Refresh bench/baseline.json with:
#   bench/run_benches.sh build bench/baseline.json --quick
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_JSON [--quick] [EXTRA_ARGS...]" >&2
  exit 2
fi

build_dir=$1
out_json=$2
shift 2
quick_flag=
if [[ ${1:-} == "--quick" ]]; then
  quick_flag=--quick
  shift
fi
extra_args=("$@")

bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir does not exist (build the benches first)" >&2
  exit 1
fi

rm -f "$out_json"
for bin in "$bench_dir"/bench_*; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name=$(basename "$bin")
  args=()
  for a in "${extra_args[@]+"${extra_args[@]}"}"; do
    args+=("${a//\{bench\}/$name}")
  done
  if [[ "$name" == "bench_sec76_overhead" ]]; then
    # Google-Benchmark binary: no PerfRecorder JSON; run it for smoke only
    # (extra args are PerfRecorder flags, so they are not passed here).
    echo "== $name (no JSON) =="
    "$bin" ${quick_flag:+--quick} > /dev/null
    continue
  fi
  echo "== $name =="
  "$bin" ${quick_flag:+--quick} --json "$out_json" \
    "${args[@]+"${args[@]}"}" > /dev/null
  # A bench that runs but never lands an entry in the merged JSON would
  # silently drop out of the regression gate; fail loudly instead.
  if ! grep -q "\"bench\":\"$name\"" "$out_json" 2>/dev/null; then
    echo "error: $name wrote no entry into $out_json" >&2
    exit 1
  fi
done

echo "merged results written to $out_json"
