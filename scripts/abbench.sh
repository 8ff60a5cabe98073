#!/usr/bin/env bash
# abbench.sh — compare a base revision with the working tree, in
# alternating pairs of runs on this machine: a perfbench workload, or
# the kernel micro-benchmarks.
#
# Usage: scripts/abbench.sh BASE_REV WORKLOAD [PAIRS] [SECONDS] [SEED]
#        scripts/abbench.sh BASE_REV micro [PAIRS]
#
#   BASE_REV  the revision to compare against, for example HEAD~
#   WORKLOAD  a perfbench workload, for example precision-tcp
#   PAIRS     alternating pairs of runs (default 10)
#   SECONDS   perfbench --seconds of each run (default 10)
#   SEED      perfbench --seed of every run (default 1)
#
# BASE_REV is checked out into a temporary git worktree, removed on
# exit. Each pair runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# or, for micro, `scripts/bench.sh OUT.json 1s`, once in that worktree
# and once in the working tree, the base first on odd pairs and second
# on even ones, so a drift of the host over the session lands on both
# sides alike.
#
# For a workload, each run's last line is its JSON report. For every
# end-to-end metric of BENCHMARK.json the script prints the base
# median [q1-q3], the change median [q1-q3], the relative change of
# the medians, and the pairs in which the change did better. It exits
# 1 if any run reports correct: false or failed > 0.
#
# For micro, cmd/benchcheck compares each kernel benchmark's median
# ns/op over the change's reports with its median over the base's, and
# the script exits 1 when one is more than 20% slower: the CI bench
# gate.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_REV WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
  echo "       $0 BASE_REV micro [PAIRS]" >&2
  exit 2
fi
base_rev="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-10}"
seed="${5:-1}"

tmp="$(mktemp -d)"
base="$tmp/base"
cleanup() {
  git worktree remove --force "$base" >/dev/null 2>&1 || true
  git worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$base" "$base_rev"

# run TREE SIDE I runs once in TREE. A micro run writes SIDE's I-th
# report to $tmp/SIDE-I.json; a workload run appends its report to
# $tmp/SIDE.jsonl and echoes its metrics to stderr.
run() {
  if [ "$workload" = micro ]; then
    (cd "$1" && scripts/bench.sh "$tmp/$2-$3.json" 1s)
    return
  fi
  local out
  out="$(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
  tail -n 1 <<<"$out" | jq -c . | tee -a "$tmp/$2.jsonl" |
    jq -rc --arg side "$2" '"abbench: \($side) correct=\(.correct) failed=\(.failed) \(.metrics | map_values(.value))"' >&2
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run "$base" base "$i"
    run . change "$i"
  else
    run . change "$i"
    run "$base" base "$i"
  fi
  echo "abbench: pair $i of $pairs done" >&2
done

if [ "$workload" = micro ]; then
  echo "micro: $base_rev vs the working tree, $pairs alternating pairs, benchtime 1s"
  # list SIDE prints SIDE's reports, comma-separated.
  list() {
    local i out=()
    for ((i = 1; i <= pairs; i++)); do out+=("$tmp/$1-$i.json"); done
    (IFS=,; echo "${out[*]}")
  }
  go run ./cmd/benchcheck -baseline "$(list base)" -current "$(list change)"
  exit
fi

echo "$workload: $base_rev vs the working tree, $pairs alternating pairs, --seconds $seconds --seed $seed"
jq -rn \
  --slurpfile base "$tmp/base.jsonl" \
  --slurpfile change "$tmp/change.jsonl" \
  --slurpfile bench BENCHMARK.json '
  # The q-quantile of a sorted array, interpolating between ranks.
  def quantile($q): ((length - 1) * $q) as $h | ($h | floor) as $lo
    | if $lo + 1 < length then .[$lo] + ($h - $lo) * (.[$lo + 1] - .[$lo]) else .[$lo] end;
  # Four significant digits.
  def sig: if . == 0 then . else pow(10; 3 - (fabs | log10 | floor)) as $s | (. * $s | round) / $s end;
  def spread: sort | "\(quantile(0.5) | sig) [\(quantile(0.25) | sig)-\(quantile(0.75) | sig)]";
  $bench[0].end_to_end[] as $m
  | [$base[] | .metrics[$m.name].value] as $b
  | [$change[] | .metrics[$m.name].value] as $c
  | [range(0; $b | length) | select(if $m.better == "lower" then $c[.] < $b[.] else $c[.] > $b[.] end)] as $won
  | ($b | sort | quantile(0.5)) as $bm
  | ($c | sort | quantile(0.5)) as $cm
  | "\($m.name) (\($m.unit), \($m.better) is better): base \($b | spread) -> change \($c | spread), "
    + "\(if $bm == 0 then "n/a" else "\(((($cm - $bm) / $bm) * 1000 | round) / 10)%" end), "
    + "change better in \($won | length) of \($b | length) pairs"'

bad="$(jq -s '[.[] | select(.correct != true or .failed > 0)] | length' "$tmp/base.jsonl" "$tmp/change.jsonl")"
if [ "$bad" -gt 0 ]; then
  echo "abbench: $bad run(s) reported correct: false or failed > 0" >&2
  exit 1
fi
