#!/usr/bin/env bash
# alloccheck.sh — the allocation-regression gate. Two layers:
#
#  1. The exact-zero pins: every *ZeroAllocs* test (internal/ecc codec
#     Into paths, internal/mc fault-enabled and traced service loops,
#     internal/runner's nil-observer sweep fast path, internal/sim's warm
#     strided-field and record reads, internal/cache's warm hierarchy
#     accesses, sibling fills and flushes) asserts flat steady-state
#     allocation via testing.AllocsPerRun.
#  2. The budget file (scripts/alloc_budget.txt): end-to-end benchmarks
#     whose allocs/op must stay under a committed ceiling. These cover
#     the per-run construction cost the pins deliberately exclude.
#
# Exits non-zero if any pin fails or any benchmark exceeds its budget.
# CI runs this as the alloc-smoke job; run it locally before touching
# the data plane (see EXPERIMENTS.md, "Steady-state allocation budget").
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${1:-scripts/alloc_budget.txt}"

echo "== zero-allocation pins =="
go test -run 'ZeroAllocs' -count=1 ./internal/cache ./internal/ecc ./internal/mc ./internal/runner ./internal/sim

echo "== allocation budgets ($BUDGET) =="
fail=0
while read -r name pkg budget; do
    case "$name" in ''|\#*) continue ;; esac
    out="$(go test -run '^$' -bench "^${name}\$" -benchmem -benchtime 1x "$pkg")"
    printf '%s\n' "$out"
    # allocs/op is the last value/unit pair on the result line; tolerate the
    # name/results split (see bench.sh) by keying on the unit, not the name.
    allocs="$(printf '%s\n' "$out" | awk '$NF == "allocs/op" {print $(NF-1); exit}')"
    if [ -z "$allocs" ]; then
        echo "FAIL: $name in $pkg produced no allocs/op line" >&2
        fail=1
    elif [ "$allocs" -gt "$budget" ]; then
        echo "FAIL: $name: $allocs allocs/op exceeds budget $budget" >&2
        fail=1
    else
        echo "ok: $name: $allocs allocs/op within budget $budget"
    fi
done < "$BUDGET"
exit "$fail"
