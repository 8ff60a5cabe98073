#!/usr/bin/env bash
# bench.sh — run the kernel micro-benchmarks and emit a JSON record.
#
# Usage: scripts/bench.sh [OUT.json] [BENCHTIME]
#
#   OUT.json   output path (default: stdout)
#   BENCHTIME  go test -benchtime value (default: 2s)
#
# The packages, the benchmark pattern and the report's JSON shape live
# in scripts/benchlib.sh, which scripts/abbench.sh shares.
#
# BENCH_<pr>.json files committed at the repo root combine the "before"
# and "after" runs of a PR so the perf trajectory stays reviewable.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/benchlib.sh

out="${1:-}"
benchtime="${2:-2s}"

raw=""
for pkg in "${bench_pkgs[@]}"; do
  raw+="$(go test -run='^$' -bench="$bench_pattern" -benchmem -benchtime="$benchtime" -count=1 "$pkg" 2>&1)"
  raw+=$'\n'
done

# Keep the human-readable output visible on stderr.
echo "$raw" >&2

payload="$(bench_report "$benchtime" <<<"$raw")"

if [ -n "$out" ]; then
  echo "$payload" > "$out"
  echo "bench.sh: wrote $out" >&2
else
  echo "$payload"
fi
