# Development and CI entry points. `make ci` is the full gate; the CI
# workflow (.github/workflows/ci.yml) runs these exact targets, so a
# green local `make ci` means a green CI `ci` job.

# Benchmark knobs: `make bench BENCH=RepeatedQuery BENCH_COUNT=5` runs a
# subset with repetitions for benchstat.
BENCH ?= .
BENCH_COUNT ?= 1
BENCH_OUT ?= bench.txt
BENCH_NOTE ?=
BENCH_RECORD_OUT ?= BENCH_PR3.json
FUZZTIME ?= 10s

.PHONY: fmt vet build test test-short race bench bench-smoke bench-compare bench-record bench-scaling bench-module fuzz-smoke fuzz-smoke-check serve-smoke ci

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go test -race -short ./...

bench:
	go test -run=NONE -bench='$(BENCH)' -benchmem -count=$(BENCH_COUNT) ./...

# bench-smoke runs every benchmark exactly once so bench files keep
# compiling and their setup/assertions keep passing in CI, without paying
# for real measurement runs.
bench-smoke:
	go test -run=NONE -bench=. -benchtime=1x ./...

# bench-module vets and tests the nested bench/ module. It has its own
# go.mod, so the root `go build ./...`, `go vet ./...` and `go test ./...`
# never compile it; this target is what catches an exported engine API
# change that breaks the end-to-end benchmark harness (bench/uubench).
bench-module:
	cd bench && go vet ./... && go test ./...

# bench-compare benchmarks HEAD against the merge-base with BASE
# (default origin/main), reports with benchstat when installed, and
# fails if a gated benchmark (columnar scans, repeated-query paths)
# regressed more than 15% — see scripts/bench_compare.sh for knobs.
bench-compare:
	./scripts/bench_compare.sh

# bench-record runs the measured benchmark set and encodes it into a
# committed perf-trajectory file (see README "Benchmark record"); set
# BENCH_RECORD_OUT=BENCH_MULTICORE.json to archive a multi-core run.
bench-record:
	go test -run=NONE -bench='$(BENCH)' -benchmem -count=$(BENCH_COUNT) ./... | tee '$(BENCH_OUT)'
	go run ./cmd/benchgate record -in '$(BENCH_OUT)' -out '$(BENCH_RECORD_OUT)' -note '$(BENCH_NOTE)'

# bench-scaling charts scan and fan-out throughput (rows/s) against
# GOMAXPROCS. The shard scan should scale near-linearly on multi-core
# hosted runners; the dev container is 1-CPU, so all -cpu points
# coincide there — the canonical curve comes from the CI bench-compare
# artifact (scaling.txt).
bench-scaling:
	go test -run=NONE -bench='^BenchmarkScaling' -cpu 1,2,4 -benchmem -count=$(BENCH_COUNT) .

# serve-smoke boots the uuserve daemon end to end: create a table over
# HTTP, ingest NDJSON, query, read a live subscription event, then
# SIGTERM and require a graceful drain (clean exit, tenant snapshot
# written, state restored on restart).
serve-smoke:
	./scripts/serve_smoke.sh

# crash-smoke proves crash durability end to end: build uuserve on the
# durable disk backend, ingest over HTTP, kill -9 (no drain, no
# snapshot), restart on the same directory and require every
# acknowledged row back via WAL replay + segment adoption.
crash-smoke:
	./scripts/crash_smoke.sh

# fuzz-smoke runs each native fuzz target briefly (coverage-guided, so
# even a short run mutates past the seed corpus). Crashers land in
# testdata/fuzz and become committed regression seeds.
fuzz-smoke:
	go test ./internal/sqlparse -run=NONE -fuzz='FuzzParse$$' -fuzztime=$(FUZZTIME)
	go test ./internal/sqlparse -run=NONE -fuzz='FuzzParsePredicate$$' -fuzztime=$(FUZZTIME)
	go test ./internal/randx -run=NONE -fuzz='FuzzSampleWithoutReplacement$$' -fuzztime=$(FUZZTIME)
	go test ./internal/randx -run=NONE -fuzz='FuzzStreamMatchesMathRand$$' -fuzztime=$(FUZZTIME)
	go test ./internal/engine -run=NONE -fuzz='FuzzFloatKernelParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/engine -run=NONE -fuzz='FuzzFloatBetweenKernelParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/engine -run=NONE -fuzz='FuzzFloatInKernelParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/engine -run=NONE -fuzz='FuzzStringKernelParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/core -run=NONE -fuzz='FuzzDynamicSplitParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/freqstats -run=NONE -fuzz='FuzzMergePartialsParity$$' -fuzztime=$(FUZZTIME)
	go test ./internal/server -run=NONE -fuzz='FuzzIngestLineParity$$' -fuzztime=$(FUZZTIME)

# fuzz-smoke-check fails when a `func Fuzz*` in the tree has no line in
# fuzz-smoke above, so a new fuzz target cannot silently skip CI.
fuzz-smoke-check:
	./scripts/fuzz_smoke_check.sh

ci: fmt fuzz-smoke-check vet build race test bench-smoke bench-module serve-smoke crash-smoke fuzz-smoke
