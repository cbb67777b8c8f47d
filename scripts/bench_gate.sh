#!/bin/sh
# bench_gate.sh — CI bench-regression gate.
#
# Re-runs the smoke benchmark suite with -benchmem (via bench.sh, at the
# baseline's benchtime so allocs/op amortize warm-up identically), then
# compares allocs/op per benchmark against the committed baseline JSON.
# Any benchmark regressing by more than THRESHOLD_PCT fails the gate.
# allocs/op is the gated metric because it is deterministic on CI runners,
# unlike ns/op; the fresh JSON is kept for artifact upload either way.
#
# Usage: scripts/bench_gate.sh [BASELINE] [FRESH_OUT]
#   BASELINE       defaults to the highest-numbered committed BENCH_n.json,
#                  so each PR is gated against its true predecessor rather
#                  than a fixed historical snapshot
#   FRESH_OUT      defaults to bench_fresh.json
#   THRESHOLD_PCT  env override, defaults to 25
set -eu
cd "$(dirname "$0")/.."

# latest_baseline prints the BENCH_n.json with the largest n (numeric, so
# BENCH_10 sorts after BENCH_9).
latest_baseline() {
	ls BENCH_*.json 2>/dev/null |
		sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1 BENCH_\1.json/p' |
		sort -n | tail -n 1 | cut -d' ' -f2
}

BASELINE="${1:-$(latest_baseline)}"
FRESH="${2:-bench_fresh.json}"
THRESHOLD_PCT="${THRESHOLD_PCT:-25}"

if [ -z "$BASELINE" ] || [ ! -f "$BASELINE" ]; then
	echo "bench_gate: baseline ${BASELINE:-BENCH_n.json} not found" >&2
	exit 2
fi
echo "bench_gate: gating against $BASELINE" >&2

# Match the baseline's benchtime and restrict to the benchmarks it records
# (new benchmarks have no baseline to regress against).
BASE_BT=$(sed -n 's/.*"benchtime": "\([^"]*\)".*/\1/p' "$BASELINE" | head -n 1)
BENCHTIME="${BENCHTIME:-${BASE_BT:-3x}}"
BENCH="${BENCH:-^(BenchmarkLocalSort|BenchmarkMergeRuns|BenchmarkFormer|BenchmarkE6InCore|BenchmarkFigure2|BenchmarkMergeSortFile|BenchmarkRunFormation|BenchmarkConcurrentJobs)$}"
export BENCHTIME BENCH

scripts/bench.sh "$FRESH"

awk -v threshold="$THRESHOLD_PCT" '
/"name":/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    if ($0 !~ /"allocs_per_op":/) next
    a = $0; sub(/.*"allocs_per_op": /, "", a); sub(/[,}].*/, "", a)
    if (FILENAME == ARGV[1]) base[name] = a + 0
    else { fresh[name] = a + 0; order[n++] = name }
}
END {
    fail = 0
    for (i = 0; i < n; i++) {
        nm = order[i]
        if (!(nm in base)) { printf "skip %s: no baseline\n", nm; continue }
        b = base[nm]; f = fresh[nm]
        # +2 absolute slack so near-zero baselines cannot flake the gate.
        limit = b * (1 + threshold / 100) + 2
        if (f > limit) {
            printf "REGRESSION %-55s allocs/op %8d -> %8d (limit %d, +%d%%)\n", nm, b, f, limit, threshold
            fail = 1
        } else {
            printf "ok         %-55s allocs/op %8d -> %8d (limit %d)\n", nm, b, f, limit
        }
    }
    if (n == 0) { print "bench_gate: fresh run produced no benchmarks"; fail = 1 }
    exit fail
}' "$BASELINE" "$FRESH"

echo "bench_gate: no allocs/op regression beyond ${THRESHOLD_PCT}% vs $BASELINE" >&2
