#!/usr/bin/env bash
# bench_compare.sh — benchmark HEAD against the merge-base with BASE and
# gate regressions. Used by `make bench-compare` locally and by the CI
# bench-compare job (same command, same thresholds).
#
# Environment knobs:
#   BASE                  ref to diff against (default origin/main)
#   BENCH_COMPARE_PATTERN -bench pattern to measure
#   BENCH_COMPARE_GATE    regexp of benchmarks that must not regress
#   BENCH_COMPARE_COUNT   -count per side (default 5; median is compared)
#   BENCH_COMPARE_DIR     output dir for old.txt/new.txt/benchstat.txt
#
# The gate covers the columnar scan and repeated-query benchmarks at a
# 15% ns/op threshold; everything else in the pattern is warn-only
# (hosted CI runners are noisy). Raw outputs are left in
# $BENCH_COMPARE_DIR for artifact upload / benchstat spelunking.
set -euo pipefail

BASE="${BASE:-origin/main}"
# The Disk* scan benchmarks are gated alongside the in-memory ones: since
# the word-kernel work the disk path reads mmap'd pages through the same
# extent slabs (cold disk scan within ~1.4x of a cold mem scan), so a
# regression there is a code regression, not page-cache noise — scan
# setup rebuilds the store per run, which keeps the page cache warm and
# the measurement stable enough to hard-gate at the shared threshold.
# The String* scan benchmarks (dictionary-encoded string predicates,
# bench_string_test.go) are measured warn-only for now: they are new in
# this PR, so the merge-base side has no corresponding runs to gate
# against. Promote them into GATE once a post-merge baseline exists.
# The EstimatorBucket* benchmarks (the dynamic and static bucket
# strategies alone, bench_test.go) are warn-only too: they isolate the
# bucket search that ColumnarQueryFanOut, which is gated, runs per query.
# BenchmarkServeIngest (500-row NDJSON batches posted to /v1/ingest,
# bench_serve_test.go) is warn-only like ServeQuery: it runs the whole
# HTTP stack, which is too noisy on shared runners to hard-gate.
PATTERN="${BENCH_COMPARE_PATTERN:-ColumnarFilteredSum|ColumnarGroupBy|ColumnarQueryFanOut|RepeatedQuery|MultiPass|DiskFilteredSum|DiskCompactedFilteredSum|DiskGroupBy|IncrementalRequery|ServeQuery|ServeIngest|StringFilteredSum|StringGroupBy|EstimatorBucket}"
GATE="${BENCH_COMPARE_GATE:-^BenchmarkColumnar(FilteredSumScan|GroupByScan|QueryFanOut)$|^BenchmarkRepeatedQuery|^BenchmarkDisk(FilteredSumScan|GroupByScan)$|^BenchmarkIncrementalRequery$}"
COUNT="${BENCH_COMPARE_COUNT:-5}"
OUT="${BENCH_COMPARE_DIR:-bench-compare}"
THRESHOLD="${BENCH_COMPARE_THRESHOLD:-15}"

mkdir -p "$OUT"

base_commit="$(git merge-base HEAD "$BASE")"
head_commit="$(git rev-parse HEAD)"
echo "bench-compare: HEAD $head_commit vs merge-base $base_commit ($BASE)"
if [ "$base_commit" = "$head_commit" ]; then
    echo "bench-compare: HEAD is the merge-base; nothing to compare"
    exit 0
fi

go run ./cmd/benchgate env

echo "bench-compare: measuring HEAD (pattern '$PATTERN', count $COUNT)"
go test -run=NONE -bench "$PATTERN" -benchmem -count "$COUNT" . | tee "$OUT/new.txt"

worktree="$(mktemp -d)"
git worktree add --detach "$worktree" "$base_commit" >/dev/null
trap 'git worktree remove --force "$worktree" >/dev/null' EXIT

echo "bench-compare: measuring merge-base"
(cd "$worktree" && go test -run=NONE -bench "$PATTERN" -benchmem -count "$COUNT" .) | tee "$OUT/old.txt"

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT/old.txt" "$OUT/new.txt" | tee "$OUT/benchstat.txt" || true
else
    echo "bench-compare: benchstat not installed; skipping the pretty report"
fi

go run ./cmd/benchgate compare \
    -old "$OUT/old.txt" -new "$OUT/new.txt" \
    -gate "$GATE" -threshold "$THRESHOLD"
