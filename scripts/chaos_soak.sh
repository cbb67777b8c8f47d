#!/usr/bin/env bash
# Nightly chaos soak (DESIGN.md §9): runs TestChaosSoak under -race — a
# 64 MiB file-backed hierarchical sort under seeded storage-fault injection
# (probabilistic transient faults, a torn first spill write, a bit-flipped
# spill read, and a spill disk that dies permanently mid-write) must finish
# and produce output byte-identical to the fault-free run, so the retry
# layer, the async disk workers and the injector race-soak each other.
#
# The seed is taken from COLSORT_CHAOS_SEED when set (replay mode),
# otherwise derived from the date so every night exercises a new fault
# pattern; the test prints it on failure for replay. CHAOS_SOAK_RECORDS
# sizes the input (default 1000000 64-byte records, 64 MiB).
set -eu
cd "$(dirname "$0")/.."
export CHAOS_SOAK_RECORDS="${CHAOS_SOAK_RECORDS:-1000000}"
exec go test -race -count 1 -timeout 60m -run '^TestChaosSoak$' -v .
