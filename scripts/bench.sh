#!/bin/sh
# bench.sh — run the key benchmarks with -benchmem and write a JSON
# trajectory file (ns/op, MB/s, B/op, allocs/op plus any custom metrics per
# benchmark) so successive PRs have a perf baseline to compare against.
#
# Usage:
#   scripts/bench.sh [OUTFILE]      # default OUTFILE: next free BENCH_n.json
#   BENCHTIME=10x scripts/bench.sh  # override -benchtime (default 3x)
#   BENCH='^BenchmarkLocalSort$' scripts/bench.sh   # override the selector
#   COLSORT_BENCH_PROFILE=1 scripts/bench.sh        # also write pprof files
#
# With COLSORT_BENCH_PROFILE=1 the run additionally writes CPU and memory
# profiles next to OUTFILE (OUTFILE minus .json, plus .cpu.prof/.mem.prof),
# so a perf PR can attach flame-graph evidence for the numbers it claims:
#   go tool pprof -http=: BENCH_4.cpu.prof
#
# Portability: plain POSIX sh and BSD-compatible awk, so it runs unchanged
# on macOS CI (bash 3.2 / BSD userland) — no pipefail, no bash arrays, and
# no pipeline around `go test` (whose exit status must gate the script).
#
# The JSON shape is:
#   {"go": "...", "benchtime": "...", "benchmarks": [
#     {"name": "...", "iters": N, "ns_per_op": ..., "mb_per_s": ...,
#      "b_per_op": ..., "allocs_per_op": ..., "extra": {"est-s": ...}}]}
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
	OUT=$1
else
	i=0
	while [ -e "BENCH_$i.json" ]; do
		i=$((i + 1))
	done
	OUT="BENCH_$i.json"
fi
BENCHTIME="${BENCHTIME:-3x}"
BENCH="${BENCH:-^(BenchmarkLocalSort|BenchmarkMergeRuns|BenchmarkFormer|BenchmarkE6InCore|BenchmarkFigure2|BenchmarkFigure2File|BenchmarkMergeSortFile|BenchmarkRunFormation|BenchmarkConcurrentJobs)$}"

RAW=$(mktemp "${TMPDIR:-/tmp}/bench.XXXXXX")
trap 'rm -f "$RAW"' EXIT INT TERM

# Profile passthrough: pprof files land next to the JSON so flame graphs and
# the numbers they explain travel together.
PROFILE_FLAGS=""
if [ "${COLSORT_BENCH_PROFILE:-0}" = "1" ]; then
	base=${OUT%.json}
	PROFILE_FLAGS="-cpuprofile $base.cpu.prof -memprofile $base.mem.prof"
	echo "profiling to $base.cpu.prof / $base.mem.prof" >&2
fi

# The root package holds every benchmark but BenchmarkFormer, which lives
# beside the former (internal/runform); two runs because the profile flags
# take one package.
# shellcheck disable=SC2086 # PROFILE_FLAGS intentionally word-splits
go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count 1 $PROFILE_FLAGS . >"$RAW"
go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count 1 ./internal/runform >>"$RAW"
cat "$RAW" >&2

awk -v goversion="$(go env GOVERSION)" -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1; iters = $2
    std["ns/op"] = ""; std["MB/s"] = ""; std["B/op"] = ""; std["allocs/op"] = ""
    extra = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit in std) std[unit] = val
        else extra = extra (extra == "" ? "" : ", ") "\"" unit "\": " val
    }
    line = "    {\"name\": \"" name "\", \"iters\": " iters
    if (std["ns/op"] != "")     line = line ", \"ns_per_op\": " std["ns/op"]
    if (std["MB/s"] != "")      line = line ", \"mb_per_s\": " std["MB/s"]
    if (std["B/op"] != "")      line = line ", \"b_per_op\": " std["B/op"]
    if (std["allocs/op"] != "") line = line ", \"allocs_per_op\": " std["allocs/op"]
    if (extra != "")            line = line ", \"extra\": {" extra "}"
    line = line "}"
    bench[n++] = line
}
END {
    printf "{\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", goversion, benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
    print "  ]\n}"
}' "$RAW" >"$OUT"

echo "wrote $OUT" >&2
