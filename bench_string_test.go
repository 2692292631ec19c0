package repro

// String-predicate benchmarks: before/after evidence for the
// dictionary-encoded string columns and the word-at-a-time code kernels.
// Both benchmarks run the same workload on the in-memory and the disk
// backend (sub-benchmarks mem/disk); caches are held to compiled programs
// only so every iteration re-evaluates the predicate against the column —
// the dictionary path is measured cold, not through the partial cache.
//
// Run with: go test -bench=String -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

const stringBenchSpecies = 41 // coprime with the 5 regions: every group survives the region filter

// buildStringBenchTable fills a table whose selective columns are strings:
// species (41 distinct values) and region (5 distinct values) next to the
// measured float. Entities are loaded through the Writer staging path on
// both backends so mem and disk get identical logical content; on disk,
// small segments (512 rows) leave every shard fully sealed.
func buildStringBenchTable(b *testing.B, disk bool) (*engine.DB, *engine.Table) {
	b.Helper()
	var db *engine.DB
	if disk {
		db = engine.Open(engine.WithBackend(engine.StorageConfig{
			Backend:         engine.BackendDisk,
			Dir:             b.TempDir(),
			SegmentRows:     512,
			CompactSegments: -1,
		}))
	} else {
		db = engine.Open()
	}
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("obs", engine.Schema{
		{Name: "species", Type: engine.TypeString},
		{Name: "region", Type: engine.TypeString},
		{Name: "v", Type: engine.TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	w := tbl.NewWriter()
	vals := make([]sqlparse.Value, 3)
	for i := 0; i < benchEntities; i++ {
		id := fmt.Sprintf("entity-%05d", i)
		vals[0] = sqlparse.StringValue(fmt.Sprintf("species-%02d", i%stringBenchSpecies))
		vals[1] = sqlparse.StringValue(fmt.Sprintf("region-%d", i%5))
		vals[2] = sqlparse.Number(float64(i % 1000))
		for s := 0; s <= i%benchSources; s++ {
			if err := w.AppendRow(id, fmt.Sprintf("src-%d", s), vals); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

// stringBenchPredicate is an all-string predicate: a range over the
// 41-value species column AND an inequality on the 5-value region column.
// Before dictionary encoding both clauses took the per-row compareValues
// fallback; after, the range compiles to a code-range test and the
// inequality to a code compare.
func stringBenchPredicate(b *testing.B) sqlparse.Expr {
	b.Helper()
	pred, err := sqlparse.ParsePredicate(
		"species BETWEEN 'species-10' AND 'species-29' AND region != 'region-0'")
	if err != nil {
		b.Fatal(err)
	}
	return pred
}

// BenchmarkStringFilteredSumScan measures a filtered SUM scan whose WHERE
// clause is entirely string predicates, on both backends.
func BenchmarkStringFilteredSumScan(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			_, tbl := buildStringBenchTable(b, backend == "disk")
			tbl.SetScanCacheLimits(128, 0) // keep programs, drop partials: cold scans
			pred := stringBenchPredicate(b)
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
		})
	}
}

// BenchmarkStringFilteredSumRowBaseline replays the pre-columnar per-row
// execution of the same string-filtered workload — materialize every
// Record, interpret the predicate per row via sqlparse.Evaluate, grow the
// sample one observation at a time — on both backends. This is the
// baseline the dictionary kernels are measured against.
func BenchmarkStringFilteredSumRowBaseline(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			_, tbl := buildStringBenchTable(b, backend == "disk")
			pred := stringBenchPredicate(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := freqstats.NewSample()
				for _, rec := range tbl.Records() {
					keep, err := sqlparse.Evaluate(pred, rec)
					if err != nil {
						b.Fatal(err)
					}
					if !keep {
						continue
					}
					v, ok := rec.Attrs["v"]
					if !ok || v.Kind == sqlparse.ValueNull {
						continue
					}
					for j := 0; j < tbl.ObservationCount(rec.EntityID); j++ {
						if err := s.Add(freqstats.Observation{
							EntityID: rec.EntityID,
							Value:    v.Num,
							Source:   fmt.Sprintf("src-%d", j),
						}); err != nil {
							b.Fatal(err)
						}
					}
				}
				if s.C() == 0 {
					b.Fatal("empty sample")
				}
			}
		})
	}
}

// BenchmarkStringGroupByScan measures GROUP BY over the 41-value string
// column under a string predicate: the grouped scan materializes a group
// key per qualifying row, which is where dictionary codes replace per-row
// string hashing.
func BenchmarkStringGroupByScan(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			_, tbl := buildStringBenchTable(b, backend == "disk")
			tbl.SetScanCacheLimits(128, 0)
			pred, err := sqlparse.ParsePredicate("region != 'region-0'")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups, err := tbl.GroupedSamples("v", "species", pred)
				if err != nil {
					b.Fatal(err)
				}
				if len(groups) != stringBenchSpecies {
					b.Fatalf("groups = %d", len(groups))
				}
			}
		})
	}
}

// BenchmarkStringGroupByRowBaseline replays the grouped workload per row:
// predicate via sqlparse.Evaluate, group key from the boxed record, one
// sample per group grown observation by observation.
func BenchmarkStringGroupByRowBaseline(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			_, tbl := buildStringBenchTable(b, backend == "disk")
			pred, err := sqlparse.ParsePredicate("region != 'region-0'")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups := map[string]*freqstats.Sample{}
				for _, rec := range tbl.Records() {
					keep, err := sqlparse.Evaluate(pred, rec)
					if err != nil {
						b.Fatal(err)
					}
					if !keep {
						continue
					}
					v, ok := rec.Attrs["v"]
					if !ok || v.Kind == sqlparse.ValueNull {
						continue
					}
					key := rec.Attrs["species"].Str
					s := groups[key]
					if s == nil {
						s = freqstats.NewSample()
						groups[key] = s
					}
					for j := 0; j < tbl.ObservationCount(rec.EntityID); j++ {
						if err := s.Add(freqstats.Observation{
							EntityID: rec.EntityID,
							Value:    v.Num,
							Source:   fmt.Sprintf("src-%d", j),
						}); err != nil {
							b.Fatal(err)
						}
					}
				}
				if len(groups) != stringBenchSpecies {
					b.Fatalf("groups = %d", len(groups))
				}
			}
		})
	}
}
