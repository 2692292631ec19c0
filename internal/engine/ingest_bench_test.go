package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sqlparse"
)

// BenchmarkShardApply measures the apply half of ingest on the disk
// backend, where the entity-index probe sits: 200k item-NNNNNN entities
// are preloaded, then each op applies one pre-staged 500-row batch (the
// serve-ingest request size) to its shards. 95% of a batch's rows mention
// a preloaded entity from a random source, the rest a new entity; one
// untimed pass over the batches inserts those and grows the lineages, so
// every timed op probes the index for 500 stored entities.
func BenchmarkShardApply(b *testing.B) {
	const (
		preload   = 200000
		batchRows = 500
		batches   = 256
		sources   = 24
	)
	schema := Schema{{Name: "region", Type: TypeString}, {Name: "v", Type: TypeFloat}}
	tbl, err := NewTableWithStorage("obs", schema, StorageConfig{Backend: BackendDisk, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer tbl.Close()
	vals := make([]sqlparse.Value, len(schema))
	row := func(w *Writer, e, s int) {
		vals[0] = sqlparse.StringValue(fmt.Sprintf("r-%03d", e%256))
		vals[1] = sqlparse.Number(float64(e) * 1.37)
		if err := w.AppendRow(fmt.Sprintf("item-%06d", e), fmt.Sprintf("src-%02d", s), vals); err != nil {
			b.Fatal(err)
		}
	}
	w := tbl.NewWriter()
	for e := 0; e < preload; e++ {
		row(w, e, e%sources)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	// Each batch is staged through a Writer whose per-shard chunks stay
	// below the push threshold, then taken from it unpushed.
	rng := rand.New(rand.NewSource(1))
	staged := make([][numShards]*obsChunk, batches)
	fresh := preload
	for k := range staged {
		w := tbl.NewWriter()
		for i := 0; i < batchRows; i++ {
			if i%20 == 19 {
				row(w, fresh, rng.Intn(sources))
				fresh++
			} else {
				row(w, rng.Intn(preload), rng.Intn(sources))
			}
		}
		staged[k] = w.local
	}
	var one [1]*obsChunk
	apply := func(k int) {
		for si, c := range &staged[k%batches] {
			if c != nil {
				one[0] = c
				tbl.applyChunks(si, one[:], nil, nil)
			}
		}
	}
	for k := range staged {
		apply(k)
	}
	b.ReportAllocs()
	for k := 0; b.Loop(); k++ {
		apply(k)
	}
}
