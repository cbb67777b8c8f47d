#!/usr/bin/env bash
# The rule book is one (DESIGN.md §7, "One rule book"): what a job may ask
# for is stated once, in the library's resolver, and cmd/colsort and the
# server's two endpoints only spell options. Five command lines that used to
# sort on defaults nobody asked for must now exit non-zero with the library's
# sentence, and the same refusal must come back as a 400 — same sentence —
# from POST /v1/sort and POST /v1/jobs. (TestRuleBook holds the full table
# in-process; this is the smoke that the real binaries still say it.)
#
#   RULEBOOK_E2E_PORT  listen port (default 18081)
set -eu

DIR="${1:-/tmp/rulebook-e2e}"
PORT="${RULEBOOK_E2E_PORT:-18081}"
URL="http://localhost:$PORT"
SERVER_PID=""

fail() {
  echo "RULEBOOK E2E FAILED ($1)" >&2
  exit 1
}
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
}
trap cleanup EXIT

rm -rf "$DIR"
mkdir -p "$DIR/data"
go build -o "$DIR/colsort" ./cmd/colsort
go build -o "$DIR/colsort-server" ./cmd/colsort-server

# refused FLAGS... -- SENTENCE: the command exits non-zero and says SENTENCE.
refused() {
  flags=()
  while [ "$1" != "--" ]; do flags+=("$1"); shift; done
  shift
  if out="$("$DIR/colsort" -n 65536 -mem 1024 "${flags[@]}" 2>&1)"; then
    fail "colsort ${flags[*]} exited 0: it ran on a default nobody asked for"
  fi
  case "$out" in
    *"$1"*) echo "refused: colsort ${flags[*]}: $1" ;;
    *) fail "colsort ${flags[*]} said \"$out\", want \"$1\"" ;;
  esac
}
refused -merge-fanin -3 -- "colsort: WithMergeFanIn(-3): the fan-in must be ≥ 2"
refused -max-memory-mib -1 -- "colsort: WithMaxMemory(-1048576): the cap must be ≥ 0"
refused -group 4 -- 'option "group" only applies to alg=hybrid'
refused -key-offset 60 -key-width 8 -- "colsort: record: key field [60:68) outside"
refused -deadline-ms -5000 -- "colsort: WithDeadline(-5s): the deadline must be ≥ 0"

"$DIR/colsort-server" -listen "localhost:$PORT" -mem 1024 -data "$DIR/data" >"$DIR/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "$URL/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$URL/healthz" >/dev/null || fail "server never became healthy on $URL"

# One refusal per endpoint: 400, and the sentence the CLI printed.
head -c $((1024 * 64)) /dev/urandom >"$DIR/data/in.dat"
want="colsort: WithMergeFanIn(-3): the fan-in must be ≥ 2"
for req in \
  "--data-binary @$DIR/data/in.dat $URL/v1/sort?merge-fanin=-3" \
  "-H Content-Type:application/json -d {\"input\":\"in.dat\",\"output\":\"out.dat\",\"options\":{\"merge-fanin\":\"-3\"}} $URL/v1/jobs"; do
  # shellcheck disable=SC2086 # the request is a word list
  got="$(curl -s -w '\n%{http_code}' $req)"
  case "$got" in
    *"$want"*400) echo "refused: ${req##* }: 400 $want" ;;
    *) fail "${req##* } answered \"$got\", want 400 and \"$want\"" ;;
  esac
done
echo "rulebook e2e passed: 5 command lines and 2 endpoints, one sentence each"
