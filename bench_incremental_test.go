package repro

// Incremental-requery benchmarks: before/after evidence for the
// partial-sample cache. Both variants run the same write-then-requery
// loop — every iteration inserts one new observation (dirtying exactly
// one shard) and re-runs a scan-heavy query. The warm variant serves the
// 15 clean shards from the per-shard partial cache and rescans only the
// dirty one; the cold variant has every cache layer off and pays the
// full 16-shard scan each time. The result cache is disabled in both:
// under sustained writes it always misses, and the point here is the
// incremental scan underneath it.
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

func incrementalRequeryLoop(b *testing.B, cold bool) {
	db, tbl := buildColumnarBenchTable(b, engine.WithEstimators(queryBenchEstimators()...))
	if cold {
		coldTable(b, tbl)
	}
	// Warm-up query: populates the partial cache (a no-op when cold), so
	// even the first timed iteration measures the steady requery state.
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
	if !cold {
		s := tbl.CacheStats()
		if s.PartialHits == 0 {
			b.Fatal("partial cache saw no hits")
		}
		b.ReportMetric(float64(s.PartialHits)/float64(s.PartialHits+s.PartialMisses), "partial-hit-rate")
	}
}

// BenchmarkIncrementalRequery is the gated fast path: one dirty shard
// rescanned per iteration, the rest served from the partial cache.
func BenchmarkIncrementalRequery(b *testing.B) {
	incrementalRequeryLoop(b, false)
}

// BenchmarkIncrementalRequeryCold is the same loop with every scan-cache
// layer disabled: the pre-incremental full rescan, kept as the
// comparison baseline for the ≥4x speedup this pipeline claims.
func BenchmarkIncrementalRequeryCold(b *testing.B) {
	incrementalRequeryLoop(b, true)
}
