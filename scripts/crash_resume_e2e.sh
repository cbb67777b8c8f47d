#!/usr/bin/env bash
# Crash/resume end-to-end (DESIGN.md §13): SIGKILL colsort-server in the
# middle of a checkpointed hierarchical file job — once mid-merge, once
# mid-run-formation — restart it over the same -data and scratch
# directories, and require the re-adopted job to finish under its original
# id with output byte-identical to an uninterrupted reference sort and no
# partial output file left in -data.
#
# A file job is its directory, DATA/.colsort/ckpt/<id>/: its job.json must
# survive each kill, the directory must be gone once the job is done, and
# no jobs.wal may ever appear.
#
# The metrics surface proves HOW it finished:
#   - merge-phase kill:   colsort_engine_runs_resumed_total equals
#     colsort_merge_runs_formed_total — every run was adopted from the
#     manifest, nothing re-sorted;
#   - formation kill:     runs_resumed is 0 and runs_formed is the whole
#     job's run count — the durable runs were discarded (they cover no
#     source prefix) and formation restarted under a re-begun manifest;
#   - both:               colsort_server_jobs_readopted_total 1, and the
#     orphan scratch sweep counter is exposed.
#
#   CRASH_E2E_RECORDS  records in the input (default 500000 = 32 MiB at z=64)
#   CRASH_E2E_PORT     listen port (default 18081)
set -eu

DIR="${1:-/tmp/crash-resume-e2e}"
RECORDS="${CRASH_E2E_RECORDS:-500000}"
PORT="${CRASH_E2E_PORT:-18081}"
URL="http://localhost:$PORT"
SERVER_PID=""

fail() {
  echo "CRASH RESUME E2E FAILED ($1)" >&2
  [ -f "$DIR/server.log" ] && tail -20 "$DIR/server.log" >&2
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -sf "$URL/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  fail "server never became healthy on $URL"
}

# The disk model (-disk-mbps) throttles spill and merge I/O so both phases
# last seconds, giving the kill a wide deterministic window.
start_server() {
  "$DIR/colsort-server" -listen ":$PORT" -p 4 -mem 16384 -z 64 \
    -dir "$DIR/scratch" -async -data "$DIR/data" -disk-mbps 24 \
    >>"$DIR/server.log" 2>&1 &
  SERVER_PID=$!
  wait_healthy
}

sigkill_server() {
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

# submit OUTPUT -> job id. max-memory-mib=4 forces the 32 MiB input through
# the hierarchical path as ~5 runs of ~8 MiB + k-way merge (the cap's 4 MiB
# = 65536 records is the former's resident set).
submit() {
  curl -sf -X POST "$URL/v1/jobs" -H 'Content-Type: application/json' \
    -d "{\"input\":\"input.dat\",\"output\":\"$1\",\"options\":{\"max-memory-mib\":\"4\"}}" \
    | sed -n 's/.*"id": "\([^"]*\)".*/\1/p'
}

# wait_job ID GREP-PATTERN DESCRIPTION: poll the job API until the body
# matches (or the job fails, or 30s pass).
wait_job() {
  for _ in $(seq 1 600); do
    body=$(curl -sf "$URL/v1/jobs/$1" || true)
    if echo "$body" | grep -q "$2"; then
      return 0
    fi
    if echo "$body" | grep -q '"state": "failed"'; then
      fail "job $1 failed while waiting for $3: $(echo "$body" | grep error || true)"
    fi
    sleep 0.05
  done
  fail "job $1 never reached $3"
}

# wait_manifest ID GREP-PATTERN COUNT DESCRIPTION: poll the job's manifest
# WAL until at least COUNT lines match — the durable truth of how far the
# sort got, independent of the progress API's coalescing.
wait_manifest() {
  manifest="$DIR/data/.colsort/ckpt/$1/manifest.wal"
  for _ in $(seq 1 600); do
    found=$(grep -c "$2" "$manifest" 2>/dev/null || true)
    if [ "${found:-0}" -ge "$3" ]; then
      return 0
    fi
    sleep 0.05
  done
  fail "job $1's manifest never showed $4"
}

# no_partial SCENARIO: a finished file job publishes its output by renaming
# the partial file it wrote beside it (colsort.ToFile), so none may be left
# in -data — not even the one the kill interrupted.
no_partial() {
  left=$(find "$DIR/data" -name '*.partial')
  [ -z "$left" ] || fail "$1: partial output left in -data: $left"
}

# job_dir_killed SCENARIO ID: the killed job's job file survived, and the
# server keeps no other job log.
job_dir_killed() {
  [ -f "$DIR/data/.colsort/ckpt/$2/job.json" ] || fail "$1: no job file survived the kill"
  no_jobs_wal "$1"
}

# job_dir_done SCENARIO ID: a finished job's directory is gone.
job_dir_done() {
  [ ! -e "$DIR/data/.colsort/ckpt/$2" ] || fail "$1: the finished job's directory is still there: $(ls -A "$DIR/data/.colsort/ckpt/$2")"
  no_jobs_wal "$1"
}

no_jobs_wal() {
  [ ! -e "$DIR/data/.colsort/jobs.wal" ] || fail "$1: the server created a jobs.wal"
}

# metric NAME FILE -> value (fails if the metric is absent).
metric() {
  v=$(awk -v n="$1" '$1 == n {print $2}' "$2")
  [ -n "$v" ] || fail "metric $1 missing from $2"
  echo "$v"
}

rm -rf "$DIR"
mkdir -p "$DIR/data"
go build -o "$DIR/colsort-bin" ./cmd/colsort
go build -o "$DIR/colsort-server" ./cmd/colsort-server
dd if=/dev/urandom of="$DIR/data/input.dat" bs=64 count="$RECORDS" status=none

# Uninterrupted reference: the library guarantees the hierarchical output
# byte-identical to the single-run sort, so one unthrottled local sort is
# the oracle for both crash scenarios.
"$DIR/colsort-bin" -alg threaded -in "$DIR/data/input.dat" -out "$DIR/ref.dat" \
  -p 4 -mem 16384 -z 64 -dir "$DIR/scratch" -async \
  || fail "local reference sort"

# ---- Scenario 1: SIGKILL mid-merge ----
start_server
id1=$(submit out-merge.dat)
[ -n "$id1" ] || fail "scenario 1: job submission returned no id"
# ingest_done in the manifest marks formation durably complete: from here
# until the job finishes, the process is mid-merge.
wait_manifest "$id1" '"type":"ingest_done"' 1 "the merge phase (ingest_done)"
sigkill_server
[ -f "$DIR/data/.colsort/ckpt/$id1/manifest.wal" ] \
  || fail "scenario 1: no manifest survived the kill"
job_dir_killed "scenario 1" "$id1"

start_server
wait_job "$id1" '"state": "done"' "completion after the mid-merge restart"
cmp "$DIR/data/out-merge.dat" "$DIR/ref.dat" \
  || fail "scenario 1: resumed output differs from the reference"
no_partial "scenario 1"
job_dir_done "scenario 1" "$id1"
curl -sf "$URL/metrics" >"$DIR/metrics1.txt" || fail "scenario 1: metrics scrape"
grep -q '^colsort_server_jobs_readopted_total 1$' "$DIR/metrics1.txt" \
  || fail "scenario 1: job was not re-adopted from its directory"
resumed=$(metric colsort_engine_runs_resumed_total "$DIR/metrics1.txt")
formed1=$(metric colsort_merge_runs_formed_total "$DIR/metrics1.txt")
[ "$resumed" -ge 2 ] || fail "scenario 1: only $resumed runs resumed"
[ "$resumed" -eq "$formed1" ] \
  || fail "scenario 1: $formed1 total runs but only $resumed adopted — runs were re-formed after a merge-phase crash"
metric colsort_orphan_scratch_cleaned_total "$DIR/metrics1.txt" >/dev/null
echo "scenario 1 (mid-merge kill): resumed $resumed/$formed1 runs, zero re-sorts, output byte-identical"

# ---- Scenario 2: SIGKILL mid-formation ----
id2=$(submit out-form.dat)
[ -n "$id2" ] || fail "scenario 2: job submission returned no id"
manifest2="$DIR/data/.colsort/ckpt/$id2/manifest.wal"
# A verified run in the manifest = mid-formation with durable state that the
# restart has to discard.
wait_manifest "$id2" '"type":"run"' 1 "a durable run"
sigkill_server
if grep -q '"type":"ingest_done"' "$manifest2"; then
  fail "scenario 2: formation had already completed at the kill"
fi
job_dir_killed "scenario 2" "$id2"
# Hold the crashed manifest open across the restart: its inode cannot be
# reused while fd 9 lives, so a manifest at the same path under another
# inode is one the restarted job began afresh (a resume that adopted runs
# appends to the old file).
exec 9<"$manifest2"
old_inode=$(stat -c %i "$manifest2")

start_server
rebegun=0
for _ in $(seq 1 600); do
  ino=$(stat -c %i "$manifest2" 2>/dev/null || true)
  if [ -n "$ino" ] && [ "$ino" != "$old_inode" ]; then
    rebegun=1
    break
  fi
  if curl -sf "$URL/v1/jobs/$id2" | grep -q '"state": "done"'; then
    break
  fi
  sleep 0.05
done
exec 9<&-
[ "$rebegun" -eq 1 ] || fail "scenario 2: the restarted job never re-began its manifest"
wait_job "$id2" '"state": "done"' "completion after the mid-formation restart"
cmp "$DIR/data/out-form.dat" "$DIR/ref.dat" \
  || fail "scenario 2: restarted output differs from the reference"
no_partial "scenario 2"
job_dir_done "scenario 2" "$id2"
curl -sf "$URL/metrics" >"$DIR/metrics2.txt" || fail "scenario 2: metrics scrape"
grep -q '^colsort_server_jobs_readopted_total 1$' "$DIR/metrics2.txt" \
  || fail "scenario 2: job was not re-adopted from its directory"
resumed=$(metric colsort_engine_runs_resumed_total "$DIR/metrics2.txt")
formed=$(metric colsort_merge_runs_formed_total "$DIR/metrics2.txt")
[ "$resumed" -eq 0 ] || fail "scenario 2: $resumed runs adopted from a formation-phase manifest"
[ "$formed" -eq "$formed1" ] \
  || fail "scenario 2: $formed runs formed after the restart, but the same job forms $formed1"
echo "scenario 2 (mid-formation kill): formation restarted, all $formed runs formed again, output byte-identical"

# A SIGTERM drain of the final server must still exit clean.
kill -TERM "$SERVER_PID"
drain_ok=0
if wait "$SERVER_PID"; then drain_ok=1; fi
SERVER_PID=""
[ "$drain_ok" -eq 1 ] || fail "final SIGTERM drain exited nonzero"
no_jobs_wal "final drain"

echo "crash resume e2e passed ($RECORDS records; mid-merge and mid-formation kills both finished byte-identical)"
