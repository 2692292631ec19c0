package repro

// Incremental-requery benchmark: the partial-sample cache under writes.
// Every iteration inserts one new observation (dirtying exactly one
// shard) and re-runs a scan-heavy query; the 15 clean shards are served
// from the per-shard partial cache and only the dirty one is rescanned.
// The result cache is disabled: under sustained writes it always misses,
// and the point here is the incremental scan underneath it.
//
// Run with: go test -bench=IncrementalRequery -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// incrementalRequerySQL leans on a LIKE scan so the per-shard filter work
// dominates: exactly what the partial cache elides on clean shards.
const incrementalRequerySQL = "SELECT SUM(v) FROM metrics WHERE name LIKE '%777%' AND v < 900"

// BenchmarkIncrementalRequery rescans one dirty shard per iteration and
// serves the rest from the partial cache.
func BenchmarkIncrementalRequery(b *testing.B) {
	db, tbl := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...))
	// Warm-up query: populates the partial cache, so even the first timed
	// iteration measures the steady requery state.
	if _, err := db.Query(incrementalRequerySQL); err != nil {
		b.Fatal(err)
	}
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
		res, err := db.Query(incrementalRequerySQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
	b.StopTimer()
	s := tbl.CacheStats()
	if s.PartialHits == 0 {
		b.Fatal("partial cache saw no hits")
	}
	b.ReportMetric(float64(s.PartialHits)/float64(s.PartialHits+s.PartialMisses), "partial-hit-rate")
}
