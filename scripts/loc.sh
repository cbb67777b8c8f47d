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
# gone: 9884; recycled scratch files, +104: pdm.FilePool — the free list,
# the rename into and out of it, the truncation on return, its open and
# peak counts and its Close, 81 lines — and FileDisk's written extent, its
# own path, the zero-filled gap and the failed-I/O mark, less FileDisk's
# fstat Size and its per-disk MkdirAll on the recycled path: 9988; one
# memory budget above the bound, -4: the level-by-level merge tree
# (mergeGroups, span, mergeLevel and the progress total's copy of it), the
# emptied-slot checks it needed and the former's runtime capacity refusal
# are gone, for the Huffman schedule (schedule, retire), the cap-sized H
# and its merge floor in resolve, and the WAL's latched failure: 9984;
# scratch disks written, then read, -76: Disk.Size and its extent arithmetic
# in every wrapper and in the striped spill's lanes are gone, and AsyncDisk
# serves one phase at a time — overlapsPendingWrite, the write's
# invalidation of staged prefetches and the read's re-check loop are gone,
# for the phase latch, its refusal and the striped front end's latch: 9908;
# the staged single-run ingest and drain, +78: pipeline.FreeList (the
# merge's free list, now shared), pdm.Store's one staged scan — stream
# under FillRows and StreamRows, with a visitor's error carried in-band to
# the last stage — in place of the FillRows loop, ScanSegments, ScanRows
# and ErrStopScan, and FileDisk's written spans with the hole fill at the
# first read in place of the eager gap fill at each write: 9986; checkpoint
# runs on the engine's file pool and a formation commit stage, +26: the
# commit stage (commitRuns) and commitRun's fsync-first order, retireRun and
# pdm.Retire, the keep disk's pool accounting, the pool's home directory and
# Sync's hole fill and truncation, less NewKeepFileDisk and closeConsumedRun,
# and a pooled file whose rename fails put back in the pool, not removed:
# 10013; a warm sort allocates nothing on the sort path, +11: record.Spares,
# one generic bounded free list for the slice headers, the sort Scratches
# and the scatter table sets, the table sets' resize and return, the
# replay's one buffer per round and FileDisk's latched Sync error, less the
# two hand-rolled free lists, the spare-set channel, ToFile's bufio plumbing
# and the run writer's eager frame buffer: 10024; the AVX-512 multiset
# checksum kernel, +36: its CPUID/XGETBV detection, foldBlocks (the lane sum
# and the bounded calls that keep a goroutine preemptible), the assembly's
# Go declarations, the stub off amd64 and OfGenerated's chunk buffer; the
# kernel itself, checksum_amd64.s, is assembly and outside this count:
# 10060; one fault injector, compiled only into tests, -18: WithChaos, the
# ChaosConfig alias, the three probability rules of check, optspell's
# chaos keys and accumulator, Machine.Chaos and DiskFile's type switch are
# gone, for pdm.Injector and its context carrier and one Unwrap per
# wrapper; the fault model moved to internal/faultinject, which stays in
# this count — moved lines are no reduction: 10042; one retry policy, no
# retry knobs, -34: RetryPolicy's MaxAttempts and BaseDelay, newJob's copy
# of them, check's two rules, optspell's retries/retry-base-us keys and
# pdm.RetryConfig's three policy fields and withDefaults are gone, for the
# policy as pdm constants held in RetryDisk's unexported fields: 10008; a
# file job is its directory, -24: the server's jobs.wal — walRecord, its
# fold, the boot compaction, Server.wal and its five unchecked appends — and
# readoptJob's list of keys older builds persisted are gone, as is the
# manifest's fixed-batch acceptance, for the job file written before the
# 202, the boot scan over job directories and the jobs.wal refusal: 9984;
# the sort kernel's two-digit level, +25: radixKV's two stable LSD
# scatters and their digit rule, the scatter/offsets/finish helpers both
# levels share, the key-extraction loop's count of falling keys, less the
# test-only Insertion algorithm (+23 in internal/sortalg), and the chunk's
# branchless key-step tally (+2 in internal/runform): 10009; the kernel's
# level choice in one place, +10: lsdBits picks the level from n, the keys'
# width and nearlyOrdered's measured cutoff, and extract is the
# key-extraction loop as a function, so the steer test asks the code radixKV
# asks: 10019).
# It also
# prints the same count per package, largest first — the numbers ROADMAP's
# largest-packages line quotes.
set -euo pipefail
max_go_lines=10019
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
