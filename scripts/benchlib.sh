# benchlib.sh — what scripts/bench.sh and scripts/abbench.sh share:
# the kernel micro-benchmarks' packages and pattern, and the parser
# that turns their output into a report. Source it from bash.

# The kernel benchmarks live next to the code they time, so a change
# outside these packages builds byte-identical binaries, which
# scripts/abbench.sh skips. Each package's benchmarks run in a process
# of their own: a multi-package go test compiles the later test
# binaries while the first one's benchmarks run, which skews timings on
# small machines.
bench_pkgs=(./internal/sim ./internal/model ./internal/dist ./internal/xrand ./internal/stats)
bench_pattern='MCIteration|SteadyState|MTTDL|Sample|ExpFloat64|ErlangFloat64|NormFloat64|Uint32n|StudentTQuantile'

# bench_report BENCHTIME reads benchmark output on stdin and prints one
# JSON report:
#
#   {
#     "go": "go1.xx ...", "cpu": "...", "benchtime": "2s",
#     "benchmarks": [
#       {"name": "...", "ns_per_op": 1.2, "allocs_per_op": 0, "bytes_per_op": 0},
#       ...
#     ]
#   }
bench_report() {
  local raw json cpu
  raw="$(cat)"
  json="$(awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = "null"; allocs = "null"
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns     = $(i-1)
        if ($(i) == "B/op")      bytes  = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", sep, name, ns, bytes, allocs
    sep = ","
}
BEGIN { printf "[" }
END   { printf "]" }
' <<<"$raw")"
  cpu="$(awk -F': ' '/^cpu:/ {print $2; exit}' <<<"$raw")"
  jq -n \
    --arg go "$(go version)" \
    --arg cpu "${cpu:-unknown}" \
    --arg benchtime "$1" \
    --argjson benchmarks "$json" \
    '{go: $go, cpu: $cpu, benchtime: $benchtime, benchmarks: $benchmarks}'
}
