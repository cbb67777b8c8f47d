#!/usr/bin/env bash
# localsort_gate.sh — the radix kernel may never be slower than introsort.
#
# Runs BenchmarkLocalSort's matrix (generator × column length × record size,
# introsort and the kernel side by side in every cell) COUNT times and fails
# when the kernel's median MB/s is below introsort's in any cell. CI's nightly
# leg runs it; run it after touching internal/sortalg.
#
# Usage: scripts/localsort_gate.sh [COUNT=5] [BENCHTIME=200ms]
set -euo pipefail
cd "$(dirname "$0")/.."
count="${1:-5}"
benchtime="${2:-200ms}"

go test -run '^$' -bench '^BenchmarkLocalSort$' -benchtime "$benchtime" -count "$count" . |
  awk '
    /^BenchmarkLocalSort\// {
      name = $1; sub(/-[0-9]+$/, "", name)          # strip the GOMAXPROCS suffix
      alg = name; sub(/.*\//, "", alg)              # last path element: intro | radix
      cell = name; sub(/^BenchmarkLocalSort\//, "", cell); sub(/\/[^\/]*$/, "", cell)
      for (i = 2; i <= NF; i++) if ($i == "MB/s") v = $(i - 1)
      n[cell, alg]++; val[cell, alg, n[cell, alg]] = v; cells[cell] = 1
    }
    function median(cell, alg,    k, i, j, t, a) {
      k = n[cell, alg]
      for (i = 1; i <= k; i++) a[i] = val[cell, alg, i] + 0
      for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j] < a[j - 1]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
      return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
    }
    END {
      bad = 0; total = 0
      for (cell in cells) {
        if (!n[cell, "intro"] || !n[cell, "radix"]) { printf "localsort_gate: %s: a side is missing\n", cell; bad++; continue }
        i = median(cell, "intro"); r = median(cell, "radix"); total++
        printf "%-40s intro %9.1f  radix %9.1f MB/s  x%.2f%s\n", cell, i, r, r / i, r < i ? "  <-- SLOWER" : "" | "sort"
        if (r < i) bad++
      }
      close("sort")
      if (total == 0) { print "localsort_gate: no benchmark output"; exit 1 }
      if (bad) { printf "localsort_gate: the kernel is below introsort in %d of %d cells\n", bad, total; exit 1 }
      printf "localsort_gate: the kernel is at or above introsort in all %d cells\n", total
    }'
