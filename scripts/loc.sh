#!/usr/bin/env bash
# loc.sh — the size number ROADMAP re-anchors and simplicity PRs quote:
# non-test Go lines that are neither blank nor a // comment, outside bench/
# (its own module), examples/ and the benchmark's build cache; plus the
# exported API golden's line count. It is a gate: CI fails above the number
# the last simplicity PR landed (ISSUE 23: 10334), so a PR that grows the tree
# says so by raising it here, with the reason in its CHANGES.md line (ISSUE 24:
# +5 — the radix kernel and one-scan verify paid for themselves; the Scratch
# free list and the four-lane AddSlice did not quite; ISSUE 27: 10271; the
# persistent-fabric BatchRunner's deletion: 10152; the audit of pdm, verify,
# pipeline, record and server: 10015; one communicator, cluster.Group and
# incore.Comm deleted: 9900). It also prints the same count per
# package, largest first — the numbers ROADMAP's largest-packages line quotes.
set -euo pipefail
max_go_lines=9900
cd "$(dirname "$0")/.."
per_pkg=$(find . -name '*.go' ! -name '*_test.go' \
  ! -path './bench/*' ! -path './examples/*' ! -path './.bench_build/*' -print0 |
  xargs -0 grep -HcvE '^[[:space:]]*(//.*)?$' |
  awk -F: '{d = $1; sub(/\/[^\/]*$/, "", d); n[d] += $2} END {for (d in n) printf "%7d  %s\n", n[d], d}' |
  sort -k1,1nr -k2)
go_lines=$(awk '{s += $1} END {print s}' <<< "$per_pkg")
echo "non-test Go lines: $go_lines"
echo "api golden lines:  $(wc -l < api/colsort_api.txt)"
echo "non-test Go lines per package, largest first:"
echo "$per_pkg"
if [ "$go_lines" -gt "$max_go_lines" ]; then
  echo "loc.sh: $go_lines non-test Go lines, over the gate of $max_go_lines" >&2
  exit 1
fi
