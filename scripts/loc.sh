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
# incore.Comm deleted: 9900; one entry point for a checkpointed job,
# Engine.Resume deleted: 9815; one spelling per sort option, the CLI's
# hand-written option flags and Config.Chaos deleted: 9739; batched run
# formation, +121: the former over sorted chunks and paged mini-runs is 285
# lines where the per-record tournament was 163, less what the audit of
# runform, tournament and merge deleted: 9860; the merge as three stages,
# +55: the stage plumbing, the verify stage and the fold-free path of the
# intermediate levels, less the emit worker they replace: 9915; one egress
# on both sides of the bound, -1: the verifying store drain, the merge's
# order check and colsort-paper's E6 check share one loop, Result.WriteFile
# and its drain are gone, and a Result always carries its record count,
# less what ToFile's publish-on-success and the wire's held-back last
# record cost: 9914; the chunk sort on the ingest stage, +29: the former
# admits sorted chunks through one path — ChunkLen, SortChunk and
# NewChunked — and runform.New, which the frozen bench/ calls, became a
# per-record adapter over it, less the former's per-record read and the
# select stage's read closure: 9943; one stage runner, -59: the passes,
# formation and the merges start, stop and join their goroutines through
# internal/pipeline's Group, Send/Recv and Chain, and RunDrain's drain
# hook, merge.stages and formation's hand-written closures and selects are
# gone: 9884). It also
# prints the same count per package, largest first — the numbers ROADMAP's
# largest-packages line quotes.
set -euo pipefail
max_go_lines=9884
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
