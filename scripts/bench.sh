#!/usr/bin/env sh
# Benchmark trajectory run: BenchmarkServeIngest (the full queue → WAL →
# scan → parse path), the scanner microbenchmarks, and the arbiter hot-path
# benchmarks, appended as one NDJSON line per run to BENCH_trajectory.ndjson
# so the history of the numbers (ROADMAP item 2) lives in the repo across
# PRs instead of each run overwriting the last. Re-run on a quiet machine
# and commit the file when the numbers move for a reason.
#
# Usage: scripts/bench.sh [trajectory.ndjson]
#   BENCHTIME=3s scripts/bench.sh      # longer per-benchmark budget
#
# Regression gate (wired into scripts/check.sh, hence CI):
#   scripts/bench.sh -check [trajectory.ndjson]
#     Runs the suite TWICE at a fixed -benchtime, takes the best (minimum)
#     ns/op per benchmark to shave scheduler noise, and compares against the
#     newest entry in the trajectory file. Fails if any benchmark present in
#     both runs got >20% slower, or if any hot-path benchmark allocates.
#     Never appends to the trajectory.
#   scripts/bench.sh -selftest
#     Exercises the comparison logic on canned numbers: a clean run must
#     pass, an injected 25% regression and an injected allocation must fail.

set -eu

cd "$(dirname "$0")/.."

MODE=run
case "${1:-}" in
-check) MODE=check; shift ;;
-selftest) MODE=selftest; shift ;;
esac

OUT="${1:-BENCH_trajectory.ndjson}"
# Trajectory runs default to 2s per benchmark; the gate's two passes use a
# shorter fixed budget (best-of-2 soaks up most of the extra noise).
if [ "$MODE" = check ]; then
    BENCHTIME="${BENCHTIME:-500ms}"
else
    BENCHTIME="${BENCHTIME:-2s}"
fi

# The gate skips the fsync-always ingest variants: their numbers are
# device-dominated (one fsync per batch), so at the gate's short
# budget run-to-run spread swamps any code regression. They stay in the
# trajectory file for the record; the CPU-bound variants gate the code.
SERVE_PAT='^BenchmarkServeIngest$'
if [ "$MODE" = check ]; then
    SERVE_PAT='^BenchmarkServeIngest$/^(nowal|wal|wal-off|shards1|shards4|fwd)$'
fi

# bench_suite RAWFILE — run every trajectory benchmark, appending the raw
# `go test -bench` text to RAWFILE (and echoing it).
bench_suite() {
    echo "==> BenchmarkServeIngest (${BENCHTIME})"
    go test -run='^$' -bench="$SERVE_PAT" -benchtime="$BENCHTIME" -benchmem ./internal/serve | tee -a "$1"

    echo "==> scanner benchmarks (${BENCHTIME})"
    go test -run='^$' -bench='^BenchmarkScanFCMessage$|^BenchmarkScanBenignMessage$' -benchtime="$BENCHTIME" -benchmem ./internal/lexgen | tee -a "$1"

    echo "==> arbiter benchmarks (${BENCHTIME})"
    go test -run='^$' -bench='^BenchmarkArbiterObserveHeartbeat$|^BenchmarkArbiterScore$' -benchtime="$BENCHTIME" -benchmem ./internal/arbiter | tee -a "$1"
}

# raw_to_tsv RAWFILE — "name ns_per_op allocs_per_op", one benchmark per line.
raw_to_tsv() {
    awk '
    /^Benchmark/ {
        name = $1
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)
        ns = allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op") ns = $(i - 1)
            else if ($i == "allocs/op") allocs = $(i - 1)
        }
        if (ns == "") next
        print name, ns, (allocs == "" ? 0 : allocs)
    }' "$1"
}

# trajectory_to_tsv FILE — same tuple format, from the newest NDJSON entry.
trajectory_to_tsv() {
    tail -n 1 "$1" | awk '
    {
        line = $0
        while (match(line, /\{"name": "[^"]*"[^}]*\}/)) {
            obj = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            name = ns = allocs = ""
            if (match(obj, /"name": "[^"]*"/))
                name = substr(obj, RSTART + 9, RLENGTH - 10)
            if (match(obj, /"ns_per_op": [0-9.e+-]+/))
                ns = substr(obj, RSTART + 13, RLENGTH - 13)
            if (match(obj, /"allocs_per_op": [0-9.e+-]+/))
                allocs = substr(obj, RSTART + 17, RLENGTH - 17)
            if (name != "" && ns != "")
                print name, ns, (allocs == "" ? 0 : allocs)
        }
    }'
}

# min_tsv A B — per-name minimum ns/op and allocs/op across two runs.
min_tsv() {
    cat "$1" "$2" | awk '
    {
        if (!($1 in ns) || $2 + 0 < ns[$1] + 0) ns[$1] = $2
        if (!($1 in al) || $3 + 0 < al[$1] + 0) al[$1] = $3
        if (!($1 in seen)) { order[++n] = $1; seen[$1] = 1 }
    }
    END { for (i = 1; i <= n; i++) print order[i], ns[order[i]], al[order[i]] }'
}

# compare_tsv BASELINE FRESH — the gate itself. Benchmarks are matched by
# name; ones that exist on only one side are reported but never fail the
# gate (the suite grows over time). Exit 1 on regression, 2 if nothing at
# all could be compared (an empty intersection would pass vacuously).
compare_tsv() {
    awk '
    NR == FNR { base_ns[$1] = $2; base_al[$1] = $3; next }
    {
        if (!($1 in base_ns)) {
            printf "   new  %-28s %12.1f ns/op (no baseline entry)\n", $1, $2
            next
        }
        matched[$1] = 1
        compared++
        limit = base_ns[$1] * 1.2
        bad = ""
        if ($2 + 0 > limit) bad = "regressed"
        if ($3 + 0 > 0) bad = (bad == "" ? "allocates" : bad " + allocates")
        if (bad != "") {
            fail++
            printf "   FAIL %-28s %12.1f ns/op vs baseline %.1f (limit %.1f), %s allocs/op — %s\n",
                $1, $2, base_ns[$1], limit, $3, bad
        } else {
            printf "   ok   %-28s %12.1f ns/op vs baseline %.1f (limit %.1f)\n",
                $1, $2, base_ns[$1], limit
        }
    }
    END {
        for (name in base_ns) if (!(name in matched))
            printf "   gone %-28s (in baseline, not in this run)\n", name
        if (compared == 0) { print "   no benchmarks in common with the baseline"; exit 2 }
        if (fail > 0) { printf "   %d of %d benchmarks failed the gate\n", fail, compared; exit 1 }
        printf "   %d benchmarks within budget\n", compared
    }' "$1" "$2"
}

if [ "$MODE" = selftest ]; then
    # Canned numbers through the real comparator: the gate must catch what
    # it claims to catch before CI trusts it.
    TD="$(mktemp -d)"
    trap 'rm -rf "$TD"' EXIT
    printf 'ServeIngest/wal 1000 0\nScanFC 600 0\n' > "$TD/base"

    printf 'ServeIngest/wal 1100 0\nScanFC 590 0\n' > "$TD/clean"
    echo "==> selftest: clean run (10% drift) must pass"
    compare_tsv "$TD/base" "$TD/clean" || { echo "selftest FAILED: clean run rejected"; exit 1; }

    printf 'ServeIngest/wal 1250 0\nScanFC 590 0\n' > "$TD/slow"
    echo "==> selftest: injected 25% regression must fail"
    if compare_tsv "$TD/base" "$TD/slow"; then
        echo "selftest FAILED: 25% regression passed the gate"; exit 1
    fi

    printf 'ServeIngest/wal 1000 1\nScanFC 590 0\n' > "$TD/alloc"
    echo "==> selftest: injected allocation must fail"
    if compare_tsv "$TD/base" "$TD/alloc"; then
        echo "selftest FAILED: allocating hot path passed the gate"; exit 1
    fi

    printf 'Unrelated 5 0\n' > "$TD/disjoint"
    echo "==> selftest: empty intersection must not pass vacuously"
    if compare_tsv "$TD/base" "$TD/disjoint"; then
        echo "selftest FAILED: disjoint benchmark sets passed the gate"; exit 1
    fi
    echo "==> selftest passed"
    exit 0
fi

if [ "$MODE" = check ]; then
    [ -f "$OUT" ] || { echo "bench.sh -check: no trajectory file $OUT"; exit 1; }
    TD="$(mktemp -d)"
    trap 'rm -rf "$TD"' EXIT
    echo "==> bench gate: 2 runs at ${BENCHTIME}, best-of-2 vs newest $OUT entry"
    # Settle outstanding writeback (earlier tests, the first gate run) so it
    # does not tax the timed windows.
    sync || true
    bench_suite "$TD/raw1" > /dev/null
    sync || true
    bench_suite "$TD/raw2" > /dev/null
    raw_to_tsv "$TD/raw1" > "$TD/tsv1"
    raw_to_tsv "$TD/raw2" > "$TD/tsv2"
    min_tsv "$TD/tsv1" "$TD/tsv2" > "$TD/fresh"
    trajectory_to_tsv "$OUT" > "$TD/base"
    echo "==> comparing against baseline ($(wc -l < "$TD/base" | tr -d ' ') benchmarks)"
    compare_tsv "$TD/base" "$TD/fresh"
    echo "==> bench gate passed"
    exit 0
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

bench_suite "$TMP"

awk -v go_version="$(go env GOVERSION)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN {
    printf "{\"generated_by\": \"scripts/bench.sh\", "
    printf "\"go\": \"%s\", \"date\": \"%s\", \"benchmarks\": [", go_version, date
    first = 1
}
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = mb = bytes = allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "MB/s") mb = $(i - 1)
        else if ($i == "B/op") bytes = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ", "
    first = 0
    printf "{\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (mb != "") printf ", \"mb_per_s\": %s", mb
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { printf "]}\n" }
' "$TMP" >> "$OUT"

echo "==> appended run to $OUT ($(wc -l < "$OUT" | tr -d ' ') runs total)"
