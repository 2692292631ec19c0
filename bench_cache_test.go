package repro

// Query-cache benchmarks: before/after evidence for the caching subsystem
// (compiled-filter + sample-partial caches on the table, whole-result
// cache in the executor). The Cold variants run with every cache layer
// disabled — they are the pre-cache execution and double as the guard
// that the cache plumbing costs nothing when it is off.
//
// Run with: go test -bench='RepeatedQuery|MultiPass' -benchmem
//
// Numbers from the 1-CPU dev container (2.10GHz Xeon, benchtime=1s) are
// recorded in BENCH_PR3.json; the warm result-cache path answers the
// repeated query in microseconds against ~9ms cold (>1000x).

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

const repeatedQuerySQL = "SELECT SUM(v) FROM metrics WHERE v >= 250 AND v < 750"

// coldTable disables every scan-cache layer on the benchmark table.
func coldTable(b *testing.B, tbl *engine.Table) {
	b.Helper()
	tbl.SetScanCacheLimits(0, 0)
}

// BenchmarkRepeatedQueryCold is the no-cache baseline: the full
// open-world query (compile, scan, estimate) re-executed from scratch
// every time. Comparable to BenchmarkColumnarQueryFanOut at PR 2.
func BenchmarkRepeatedQueryCold(b *testing.B) {
	db, tbl := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...))
	coldTable(b, tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(repeatedQuerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRepeatedQueryWarmScanCache repeats the query with the
// compiled-filter and sample-partial caches (the default table
// configuration): the predicate compiles once and every shard reuses its
// cached partial, but the merge and estimators still run.
func BenchmarkRepeatedQueryWarmScanCache(b *testing.B) {
	db, _ := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(repeatedQuerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRepeatedQueryWarmResultCache adds the executor's whole-result
// cache: after the first execution a repeat is a key build plus an epoch
// check. This is the repeated-query fast path the CI gate protects.
func BenchmarkRepeatedQueryWarmResultCache(b *testing.B) {
	db, _ := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...), engine.WithResultCache(64<<20))
	if _, err := db.Query(repeatedQuerySQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(repeatedQuerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRepeatedQueryInvalidated measures the cache subsystem under
// writes: every iteration inserts one new observation (bumping one
// shard's epoch, invalidating its partial and the whole-result entry)
// before querying, so this is the worst case for cache bookkeeping.
func BenchmarkRepeatedQueryInvalidated(b *testing.B) {
	db, tbl := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...), engine.WithResultCache(64<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("churn-%07d", i)
		err := tbl.Insert(id, "src-churn", map[string]sqlparse.Value{
			"name":   sqlparse.StringValue(id),
			"region": sqlparse.StringValue("region-0"),
			"v":      sqlparse.Number(float64(i % 1000)),
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := db.Query(repeatedQuerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkColumnarFilteredSumScanCold is BenchmarkColumnarFilteredSumScan
// with every cache layer off — semantically identical to the scan at PR 2,
// it guards the cold path against cache-plumbing overhead.
func BenchmarkColumnarFilteredSumScanCold(b *testing.B) {
	_, tbl := buildColumnarBenchTable(b)
	coldTable(b, tbl)
	pred := benchPredicate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := tbl.Sample("v", pred)
		if err != nil {
			b.Fatal(err)
		}
		if s.C() == 0 {
			b.Fatal("empty sample")
		}
	}
}

// multiPass runs the two scans of a "drill-down" workload — the filtered
// aggregate and the same predicate regrouped by region. With the scan
// cache on, repeats serve the aggregate pass from cached partials; the
// grouped pass always evaluates the predicate.
func multiPass(b *testing.B, tbl *engine.Table) {
	pred := benchPredicate(b)
	s, err := tbl.Sample("v", pred)
	if err != nil {
		b.Fatal(err)
	}
	if s.C() == 0 {
		b.Fatal("empty sample")
	}
	groups, err := tbl.GroupedSamples("v", "region", pred)
	if err != nil {
		b.Fatal(err)
	}
	if len(groups) != 5 {
		b.Fatalf("groups = %d", len(groups))
	}
}

// BenchmarkMultiPassScanCold: both passes evaluate the predicate.
func BenchmarkMultiPassScanCold(b *testing.B) {
	_, tbl := buildColumnarBenchTable(b)
	coldTable(b, tbl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiPass(b, tbl)
	}
}

// BenchmarkMultiPassScanWarm: every repeat reuses the compiled program and
// the aggregate pass's cached partials.
func BenchmarkMultiPassScanWarm(b *testing.B) {
	_, tbl := buildColumnarBenchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multiPass(b, tbl)
	}
}

// BenchmarkMultiBucketQuery runs a query whose estimator set carries two
// bucket passes with identical boundaries (same strategy, different
// inner estimators). Each pass builds all its buckets in one partition
// pass over the root sample, so two passes cost two partitions.
func BenchmarkMultiBucketQuery(b *testing.B) {
	db, _ := buildColumnarBenchTable(b, engine.WithEstimators(
		core.Bucket{Strategy: core.EquiWidth{K: 16}, Inner: core.Naive{}},
		core.Bucket{Strategy: core.EquiWidth{K: 16}, Inner: core.Frequency{}},
	))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(repeatedQuerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}
