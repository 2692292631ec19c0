package repro

// Disk-backend benchmarks: the mmap'd segment scan path next to the
// in-memory columnar scan it must stay comparable to. DiskFilteredSumScan
// is part of the bench-compare warn-only set (scripts/bench_compare.sh),
// so regressions show up in every PR's benchstat report without the
// hosted runners' disk noise hard-failing the gate.

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
		// Background compaction off: the gated Disk* benchmarks measure the
		// multi-segment layout they always measured; the compacted layout
		// has its own benchmark (BenchmarkDiskCompactedFilteredSumScan).
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

// BenchmarkDiskFilteredSumScan is BenchmarkColumnarFilteredSumScanCold on
// the disk backend: same 20k-entity table, same predicate, partial cache
// disabled so every iteration re-evaluates the filter against the mmap'd
// segments.
func BenchmarkDiskFilteredSumScan(b *testing.B) {
	_, tbl := buildDiskBenchTable(b)
	tbl.SetScanCacheLimits(128, 0) // keep programs, drop partials: cold scans
	pred, err := sqlparse.ParsePredicate("v >= 250 AND v < 750")
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkDiskCompactedFilteredSumScan is BenchmarkDiskFilteredSumScan
// after Table.Compact merged every shard into one word-aligned extent:
// the delta against the uncompacted run is the payoff of segment
// compaction (single-extent fast paths instead of per-segment walks).
// Warn-only in bench-compare — it rides the pattern, not the gate.
func BenchmarkDiskCompactedFilteredSumScan(b *testing.B) {
	_, tbl := buildDiskBenchTable(b)
	if err := tbl.Compact(); err != nil {
		b.Fatal(err)
	}
	tbl.SetScanCacheLimits(128, 0)
	pred, err := sqlparse.ParsePredicate("v >= 250 AND v < 750")
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkDiskGroupByScan exercises the segment string path (group keys
// materialize from the mmap'd blob).
func BenchmarkDiskGroupByScan(b *testing.B) {
	_, tbl := buildDiskBenchTable(b)
	tbl.SetScanCacheLimits(128, 0)
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
