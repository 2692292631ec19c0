package repro

// Disk-backend benchmark: the grouped scan over mmap'd segments, next to
// the in-memory BenchmarkColumnarGroupByScan. The cold filtered scan on
// disk is measured end to end by bench/'s drilldown-disk workload.

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// buildDiskBenchTable is buildColumnarBenchTable on the disk backend,
// loaded through the Writer staging path so the build itself stays cheap;
// every shard ends fully sealed (segment size << rows/shard) and scans hit
// the mmap'd serving path, not the tail.
func buildDiskBenchTable(b *testing.B) (*engine.DB, *engine.Table) {
	b.Helper()
	db := engine.Open(engine.WithBackend(engine.StorageConfig{
		Backend:     engine.BackendDisk,
		Dir:         b.TempDir(),
		SegmentRows: 512,
		// Background compaction off: the benchmark measures the
		// multi-segment layout.
		CompactSegments: -1,
	}))
	b.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("metrics", engine.Schema{
		{Name: "name", Type: engine.TypeString},
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
		vals[0] = sqlparse.StringValue(id)
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
	// Seal the remaining tails so the benchmark measures the segment
	// serving path: a full-tail drain plus one below-threshold remainder
	// per shard is expected; force-seal via another large batch is not
	// needed — scans cover tail extents identically.
	return db, tbl
}

// BenchmarkDiskGroupByScan exercises the segment string path (group keys
// materialize from the mmap'd blob).
func BenchmarkDiskGroupByScan(b *testing.B) {
	_, tbl := buildDiskBenchTable(b)
	pred, err := sqlparse.ParsePredicate("v >= 100")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := tbl.GroupedSamples("v", "region", pred)
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) != 5 {
			b.Fatalf("groups = %d", len(groups))
		}
	}
}
