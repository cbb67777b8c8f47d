#!/usr/bin/env bash
# loc.sh — the size number ROADMAP re-anchors and simplicity PRs quote:
# non-test Go lines that are neither blank nor a // comment, outside bench/
# (its own module), examples/ and the benchmark's build cache; plus the
# exported API golden's line count.
set -euo pipefail
cd "$(dirname "$0")/.."
go_lines=$(find . -name '*.go' ! -name '*_test.go' \
  ! -path './bench/*' ! -path './examples/*' ! -path './.bench_build/*' -print0 |
  xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$')
echo "non-test Go lines: $go_lines"
echo "api golden lines:  $(wc -l < api/colsort_api.txt)"
