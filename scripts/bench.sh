#!/usr/bin/env bash
# bench.sh — run the repo's Benchmark* suites with -benchmem and emit a
# machine-readable baseline, BENCH_<date>.json by default (override with a
# filename argument). Each entry records the benchmark name, iteration
# count, ns/op, B/op, allocs/op, and any custom metrics reported via
# b.ReportMetric (e.g. sim-requests, speedup).
#
# The microbenchmarks (internal/mc, internal/ecc) run at a real benchtime
# for stable ns/op; the root figure/sweep suite runs one iteration per
# benchmark because each iteration is a full simulation.
#
# Compare two baselines with benchstat, or diff the JSON directly — see
# EXPERIMENTS.md ("Performance methodology").
set -euo pipefail
cd "$(dirname "$0")/.."

DATE="${BENCH_DATE:-$(date +%F)}"
OUT="${1:-BENCH_${DATE}.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "${MICRO_BENCHTIME:-1s}" \
    ./internal/mc ./internal/ecc ./internal/etrace | tee "$RAW"
go test -run '^$' -bench . -benchmem -benchtime 1x . | tee -a "$RAW"
# The serial-vs-parallel contrast is a ratio of two wall-clock times, and
# at one iteration the ratio is mostly noise (the 1x run above leaves a
# large heap behind, too). Re-run it in a fresh process at a real iteration
# count; the parser keeps the later, better-sampled entries. The
# multi-channel scaling benchmark rides along so its ns/op is also sampled.
go test -run '^$' -bench 'Parallelism|ExtensionMultiChannel' \
    -benchmem -benchtime "${PAR_BENCHTIME:-5x}" . | tee -a "$RAW"
# The headline figure benchmarks deserve real sampling too: at 1x their
# ns/op carries the whole warm-up (table generation, first-touch paging).
# Re-run them at a fixed small iteration count; the parser keeps these
# later, better-sampled entries in place of the 1x ones.
go test -run '^$' -bench '^BenchmarkFig12' \
    -benchmem -benchtime "${FIG_BENCHTIME:-3x}" . | tee -a "$RAW"

# go test bench lines are "BenchmarkName-P  iters  value unit  value unit ...";
# fold the value/unit pairs into JSON keys (ns/op -> ns_per_op, custom
# metric units keep their name with non-alphanumerics mapped to _).
#
# go test prints the benchmark name before running it and the results after,
# so anything written to stdout in between (or an interrupted run) leaves the
# name on a line of its own and the results on the next. That split hit
# subtest-named benchmarks reporting custom metrics and silently dropped
# them from the JSON (worse: a trailing bare name emitted "iterations":}
# — invalid JSON). Buffer a name-only line and rejoin it with its results
# line; a name whose results never arrive is reported on stderr, not
# half-emitted.
awk -v date="$DATE" -v goversion="$(go env GOVERSION)" '
/^Benchmark/ && NF == 1 { pending = $1; next }
pending != "" {
    if ($1 ~ /^[0-9]+$/) { $0 = pending "\t" $0 }
    else printf "bench.sh: dropping %s: no results line\n", pending > "/dev/stderr"
    pending = ""
}
/^Benchmark/ && $2 ~ /^[0-9]+$/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    line = sprintf("{\"name\":\"%s\",\"iterations\":%s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit == "ns/op") key = "ns_per_op"
        else if (unit == "B/op") key = "bytes_per_op"
        else if (unit == "allocs/op") key = "allocs_per_op"
        else { key = unit; gsub(/[^A-Za-z0-9]/, "_", key) }
        line = line sprintf(",\"%s\":%s", key, val)
    }
    # A name measured twice (the Parallelism re-run) keeps its later,
    # better-sampled entry in its original position.
    if (name in idx) out[idx[name]] = line "}"
    else { idx[name] = n; out[n++] = line "}" }
}
END {
    if (pending != "")
        printf "bench.sh: dropping %s: no results line\n", pending > "/dev/stderr"
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, goversion
    for (i = 0; i < n; i++) printf "    %s%s\n", out[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"
echo "wrote $OUT"
