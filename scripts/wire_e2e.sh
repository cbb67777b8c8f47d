#!/usr/bin/env bash
# Loopback end-to-end test of sort-over-the-wire (DESIGN.md §11): boot
# colsort-server, stream a 64 MiB file through POST /v1/sort with curl, and
# require the response byte-identical to the local CLI sorting the same
# input with the same engine shape — ascending and descending. Then scrape
# /metrics, drain the server with SIGTERM, and run the load generator
# against a -jobs 1 instance to prove saturation surfaces as 429/Retry-After.
#
#   WIRE_E2E_RECORDS  records in the input (default 1000000 = 64 MiB at z=64)
#   WIRE_E2E_PORT     listen port (default 18080)
set -eu

DIR="${1:-/tmp/wire-e2e}"
RECORDS="${WIRE_E2E_RECORDS:-1000000}"
PORT="${WIRE_E2E_PORT:-18080}"
URL="http://localhost:$PORT"
SERVER_PID=""

fail() {
  echo "WIRE E2E FAILED ($1)" >&2
  [ -f "$DIR/server.log" ] && tail -20 "$DIR/server.log" >&2
  exit 1
}

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
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

rm -rf "$DIR"
mkdir -p "$DIR"
go build -o "$DIR/colsort-bin" ./cmd/colsort
go build -o "$DIR/colsort-server" ./cmd/colsort-server
dd if=/dev/urandom of="$DIR/input.dat" bs=64 count="$RECORDS" status=none

# Local references: the same engine shape (4 procs × 16384 records × 64 B =
# 4 MiB of column buffers, so 64 MiB is a 16× out-of-core hierarchical
# sort), ascending and descending on bytes [0,8).
"$DIR/colsort-bin" -alg threaded -in "$DIR/input.dat" -out "$DIR/ref-asc.dat" \
  -p 4 -mem 16384 -z 64 -dir "$DIR/scratch" -async \
  || fail "local ascending reference"
"$DIR/colsort-bin" -alg threaded -in "$DIR/input.dat" -out "$DIR/ref-desc.dat" \
  -p 4 -mem 16384 -z 64 -dir "$DIR/scratch" -async -key-offset 0 -key-width 8 -order desc \
  || fail "local descending reference"

"$DIR/colsort-server" -listen ":$PORT" -p 4 -mem 16384 -z 64 \
  -dir "$DIR/server-scratch" -async -jobs 4 >"$DIR/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy

curl -sSf -o "$DIR/wire-asc.dat" -H 'Content-Type: application/octet-stream' \
  --data-binary @"$DIR/input.dat" "$URL/v1/sort" \
  || fail "wire ascending sort"
cmp "$DIR/wire-asc.dat" "$DIR/ref-asc.dat" || fail "wire ascending output differs from local sort"

curl -sSf -o "$DIR/wire-desc.dat" -H 'Content-Type: application/octet-stream' \
  --data-binary @"$DIR/input.dat" \
  "$URL/v1/sort?key-offset=0&key-width=8&order=desc" \
  || fail "wire descending sort"
cmp "$DIR/wire-desc.dat" "$DIR/ref-desc.dat" || fail "wire descending output differs from local sort"

# The metrics surface reflects the two completed jobs.
curl -sf "$URL/metrics" >"$DIR/metrics.txt" || fail "metrics scrape"
grep -q '^colsort_engine_completed_jobs_total 2$' "$DIR/metrics.txt" \
  || fail "metrics do not count the 2 completed jobs: $(grep completed_jobs "$DIR/metrics.txt" || true)"
grep -q 'colsort_http_requests_total{route="POST /v1/sort",code="200"} 2' "$DIR/metrics.txt" \
  || fail "per-endpoint request accounting missing"

# Drain-aware shutdown: SIGTERM must exit 0 after a clean drain.
kill -TERM "$SERVER_PID"
drain_ok=0
if wait "$SERVER_PID"; then drain_ok=1; fi
SERVER_PID=""
[ "$drain_ok" -eq 1 ] || fail "SIGTERM drain exited nonzero"
grep -q "drained" "$DIR/server.log" || fail "server log has no drain line"

# Saturation: a -jobs 1 instance under 6 parallel 8 MiB uploads must refuse
# the overflow with 429/Retry-After while still sorting at least one.
"$DIR/colsort-server" -listen ":$PORT" -p 4 -mem 16384 -z 64 \
  -dir "$DIR/server-scratch" -async -jobs 1 >>"$DIR/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy
LOADGEN_URL="$URL" LOADGEN_CLIENTS=6 LOADGEN_EXPECT_BUSY=1 \
  bash scripts/loadgen.sh || fail "load generator"
kill -TERM "$SERVER_PID" && wait "$SERVER_PID" || fail "second drain"
SERVER_PID=""

echo "wire e2e passed ($RECORDS records over the wire, asc+desc byte-identical, drain clean)"
