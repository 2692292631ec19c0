package repro

// Query-cache benchmarks: the caching subsystem (compiled-filter +
// sample-partial caches on the table, whole-result cache in the
// executor) on repeated queries. The cold path, a query that shares no
// cached state, is measured end to end by bench/'s drilldown-disk
// workload; in the engine, TestCachedVsColdParity holds cached
// and uncached answers bitwise equal.
//
// Run with: go test -bench='RepeatedQuery|MultiPass' -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

const repeatedQuerySQL = "SELECT SUM(v) FROM metrics WHERE v >= 250 AND v < 750"

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
