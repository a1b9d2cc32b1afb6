#!/usr/bin/env bash
# Golden-output gate for the deterministic benches: runs every bench binary
# in a build tree with --quick and compares the SHA-256 of its stdout with
# bench/golden_quick.sha256. The paper-figure outputs are the project's
# fixed point, so a simplification that changes any of them fails here.
#
# Usage: bench/check_golden.sh BUILD_DIR [--update]
#
# --update rewrites the golden file from BUILD_DIR instead of checking (do
# this only in a change that alters bench output on purpose, and say so).
#
# Skipped, because their stdout is not deterministic: bench_server_pipeline
# (its Jain and accepted-SIC lines come from wall-clock runs) and
# bench_sec76_overhead (a Google Benchmark binary printing timings).
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 || ( $# -eq 2 && $2 != "--update" ) ]]; then
  echo "usage: $0 BUILD_DIR [--update]" >&2
  exit 2
fi

build_dir=$1
update=${2:-}
golden="$(cd "$(dirname "$0")" && pwd)/golden_quick.sha256"
bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir does not exist (build the benches first)" >&2
  exit 1
fi

# Never merge into a results file while checking.
unset THEMIS_BENCH_JSON

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
for bin in "$bench_dir"/bench_*; do
  [[ -x "$bin" && ! -d "$bin" ]] || continue
  name=$(basename "$bin")
  case "$name" in
    bench_server_pipeline | bench_sec76_overhead) continue ;;
  esac
  echo "== $name" >&2
  digest=$("$bin" --quick | sha256sum | cut -d' ' -f1)
  echo "$digest  $name" >> "$actual"
done

if [[ $update == "--update" ]]; then
  cp "$actual" "$golden"
  echo "wrote $(wc -l < "$golden") digests to $golden" >&2
  exit 0
fi

if diff -u "$golden" "$actual"; then
  echo "golden: $(wc -l < "$golden") bench outputs match" >&2
else
  echo "golden: bench --quick output differs from $golden" >&2
  exit 1
fi
