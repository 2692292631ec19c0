package repro

// Streaming-ingest benchmarks: the batched asynchronous ingestion path
// (per-shard staging + batch apply + Flush barriers, internal/engine's
// ingest.go) against the historical per-row Insert, on the same
// crowdsourced-shaped workload (entities reported by many sources,
// interleaved arrival, a realistic five-column schema).
//
// Three regimes:
//
//   - pure ingest, single writer: batching amortizes shard locking, epoch
//     bumps and map traffic (~2.5-3x on the 1-CPU dev container);
//   - pure ingest, multiple writers: writer-local staging removes the
//     shared-lock rendezvous per row (~3x);
//   - serve-while-ingesting: the node answers a cached aggregate query
//     every few rows during ingestion. Per-row Insert bumps a shard
//     epoch on every row, so every query is a cold scan; batch applies
//     invalidate once per batch and queries stay cache-hot between
//     batches (the reason the subsystem exists — this is where the
//     batched pipeline wins by the widest margin).
//
// The reported metric is rows/s of the ingest side.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

const (
	ingestBenchEntities = 1000
	ingestBenchSources  = 16
	ingestBenchWriters  = 4
)

type ingestWorkload struct {
	ids  []string
	srcs []string
}

func newIngestWorkload() ingestWorkload {
	w := ingestWorkload{
		ids:  make([]string, ingestBenchEntities),
		srcs: make([]string, ingestBenchSources),
	}
	for i := range w.ids {
		w.ids[i] = fmt.Sprintf("entity-%d", i)
	}
	for i := range w.srcs {
		w.srcs[i] = fmt.Sprintf("src-%d", i)
	}
	return w
}

func (w ingestWorkload) rows() int { return ingestBenchEntities * ingestBenchSources }

func ingestBenchTable(b *testing.B, db *engine.DB) *engine.Table {
	b.Helper()
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "v", Type: engine.TypeFloat},
		{Name: "sector", Type: engine.TypeString},
		{Name: "rank", Type: engine.TypeFloat},
		{Name: "active", Type: engine.TypeBool},
	})
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// insertRows replays source-range [s0, s1) through per-row Insert.
func insertRows(b *testing.B, tbl *engine.Table, w ingestWorkload, s0, s1 int) {
	for s := s0; s < s1; s++ {
		for e := 0; e < ingestBenchEntities; e++ {
			err := tbl.Insert(w.ids[e], w.srcs[s], map[string]sqlparse.Value{
				"name":   sqlparse.StringValue(w.ids[e]),
				"v":      sqlparse.Number(float64(e)),
				"sector": sqlparse.StringValue("tech"),
				"rank":   sqlparse.Number(float64(e % 10)),
				"active": sqlparse.BoolValue(e%2 == 0),
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	}
}

// streamRows replays source-range [s0, s1) through a Writer's positional
// staging path.
func streamRows(b *testing.B, wr *engine.Writer, w ingestWorkload, s0, s1 int) {
	vals := make([]sqlparse.Value, 5)
	for s := s0; s < s1; s++ {
		for e := 0; e < ingestBenchEntities; e++ {
			vals[0] = sqlparse.StringValue(w.ids[e])
			vals[1] = sqlparse.Number(float64(e))
			vals[2] = sqlparse.StringValue("tech")
			vals[3] = sqlparse.Number(float64(e % 10))
			vals[4] = sqlparse.BoolValue(e%2 == 0)
			if err := wr.AppendRow(w.ids[e], w.srcs[s], vals); err != nil {
				b.Error(err)
				return
			}
		}
	}
	if err := wr.Flush(); err != nil {
		b.Error(err)
	}
}

func reportIngestRate(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkStreamingIngest(b *testing.B) {
	w := newIngestWorkload()

	b.Run("per-row-insert", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var db engine.DB
			tbl := ingestBenchTable(b, &db)
			b.StartTimer()
			insertRows(b, tbl, w, 0, ingestBenchSources)
		}
		reportIngestRate(b, b.N*w.rows())
	})

	for _, batch := range []int{256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var db engine.DB
				tbl := ingestBenchTable(b, &db)
				ing, err := tbl.StartIngest(engine.IngestConfig{BatchRows: batch})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				streamRows(b, ing.NewWriter(), w, 0, ingestBenchSources)
				if err := ing.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := tbl.NumObservations(); got != w.rows() {
					b.Fatalf("observations = %d, want %d", got, w.rows())
				}
				b.StartTimer()
			}
			reportIngestRate(b, b.N*w.rows())
		})
	}

	perWriter := ingestBenchSources / ingestBenchWriters
	b.Run("multi-writer/per-row-insert", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var db engine.DB
			tbl := ingestBenchTable(b, &db)
			b.StartTimer()
			var wg sync.WaitGroup
			for wtr := 0; wtr < ingestBenchWriters; wtr++ {
				wg.Add(1)
				go func(wtr int) {
					defer wg.Done()
					insertRows(b, tbl, w, wtr*perWriter, (wtr+1)*perWriter)
				}(wtr)
			}
			wg.Wait()
		}
		reportIngestRate(b, b.N*w.rows())
	})

	b.Run("multi-writer/batch=256", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var db engine.DB
			tbl := ingestBenchTable(b, &db)
			ing, err := tbl.StartIngest(engine.IngestConfig{BatchRows: 256})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			var wg sync.WaitGroup
			for wtr := 0; wtr < ingestBenchWriters; wtr++ {
				wg.Add(1)
				go func(wtr int) {
					defer wg.Done()
					streamRows(b, ing.NewWriter(), w, wtr*perWriter, (wtr+1)*perWriter)
				}(wtr)
			}
			wg.Wait()
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := tbl.NumObservations(); got != w.rows() {
				b.Fatalf("observations = %d, want %d", got, w.rows())
			}
			b.StartTimer()
		}
		reportIngestRate(b, b.N*w.rows())
	})

	// Serve-while-ingesting: the node answers the same cached aggregate
	// query every serveQueryEvery rows while the stream lands — a fixed,
	// deterministic query load interleaved with ingestion (closed loop, so
	// the comparison is identical on any CPU count). Per-row Insert moves
	// a shard epoch on every row, making every one of those queries a cold
	// scan; batch applies invalidate once per batch, so queries between
	// batch boundaries are cache hits. rows/s is the ingest throughput
	// under that load.
	const serveQueryEvery = 32
	// The serve workload uses the cheap Naive estimator only: the contrast
	// under measurement is cache invalidation (cold scans vs hits), which
	// is independent of how much the estimator pass costs on top.
	serveEstimators := []core.SumEstimator{core.Naive{}}
	serveQuery := func(b *testing.B, db *engine.DB) {
		b.Helper()
		if _, err := db.Query("SELECT SUM(v) FROM t WHERE v >= 100"); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serve/per-row-insert", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := engine.Open(engine.WithEstimators(serveEstimators...), engine.WithResultCache(16<<20))
			tbl := ingestBenchTable(b, db)
			b.StartTimer()
			row := 0
			for s := 0; s < ingestBenchSources; s++ {
				for e := 0; e < ingestBenchEntities; e++ {
					err := tbl.Insert(w.ids[e], w.srcs[s], map[string]sqlparse.Value{
						"name":   sqlparse.StringValue(w.ids[e]),
						"v":      sqlparse.Number(float64(e)),
						"sector": sqlparse.StringValue("tech"),
						"rank":   sqlparse.Number(float64(e % 10)),
						"active": sqlparse.BoolValue(e%2 == 0),
					})
					if err != nil {
						b.Fatal(err)
					}
					if row++; row%serveQueryEvery == 0 {
						serveQuery(b, db)
					}
				}
			}
		}
		reportIngestRate(b, b.N*w.rows())
	})
	b.Run("serve/batch=256", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		vals := make([]sqlparse.Value, 5)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := engine.Open(engine.WithEstimators(serveEstimators...), engine.WithResultCache(16<<20))
			tbl := ingestBenchTable(b, db)
			ing, err := tbl.StartIngest(engine.IngestConfig{BatchRows: 256})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			wr := ing.NewWriter()
			row := 0
			for s := 0; s < ingestBenchSources; s++ {
				for e := 0; e < ingestBenchEntities; e++ {
					vals[0] = sqlparse.StringValue(w.ids[e])
					vals[1] = sqlparse.Number(float64(e))
					vals[2] = sqlparse.StringValue("tech")
					vals[3] = sqlparse.Number(float64(e % 10))
					vals[4] = sqlparse.BoolValue(e%2 == 0)
					if err := wr.AppendRow(w.ids[e], w.srcs[s], vals); err != nil {
						b.Fatal(err)
					}
					if row++; row%serveQueryEvery == 0 {
						serveQuery(b, db)
					}
				}
			}
			if err := wr.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := ing.Close(); err != nil {
				b.Fatal(err)
			}
		}
		reportIngestRate(b, b.N*w.rows())
	})
}
