package engine

// Cross-backend parity: a disk-backed shard store must be query-surface
// indistinguishable from the in-memory store. The suite reuses the
// metamorphic machinery (metamorphic_test.go): the same observation
// multiset is built on an explicitly in-memory reference and on
// disk-backed variants under random Insert/Append/AppendRow/Writer/Flush
// interleavings, random batch sizes and applier counts, tiny segment
// sizes (so every shard crosses several seal boundaries) and both
// serving modes (mmap and the ReadAt fallback) — and every observable
// artifact must be bitwise-identical: sample fingerprints, exact
// per-source attribution (sum_j n_j == n is re-checked by the package's
// selfCheck on every merged sample), GROUP BY partitions, and full
// executor results including every estimator's numbers.

import (
	"fmt"
	"math/rand"
	"testing"
)

// memRef builds the per-row-Insert reference on an explicit in-memory
// store (explicit, so the parity holds even when the package-wide default
// backend is overridden via UU_ENGINE_BACKEND).
func memRef(t *testing.T, obs []metaObs) *DB {
	t.Helper()
	db, tbl := metaTableStorage(t, StorageConfig{Backend: BackendMemory})
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func diskVariantCfg(t *testing.T, segRows int, disableMmap bool) StorageConfig {
	t.Helper()
	return StorageConfig{
		Backend:     BackendDisk,
		Dir:         t.TempDir(),
		SegmentRows: segRows,
		DisableMmap: disableMmap,
	}
}

func TestCrossBackendParityStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	obs := metaWorkload(rng, 40, 8, 600)
	ref := memRef(t, obs)

	variants := 6
	if testing.Short() {
		variants = 3
	}
	for i := 0; i < variants; i++ {
		vrng := rand.New(rand.NewSource(int64(500 + i)))
		cfg := diskVariantCfg(t, []int{8, 32, 128}[i%3], i%2 == 1)
		got := streamVariantStorage(t, vrng, obs, i > 0, cfg)
		label := fmt.Sprintf("disk variant %d (segRows=%d mmapOff=%v)", i, cfg.SegmentRows, cfg.DisableMmap)
		querySurface(t, ref, got, label)
	}
}

// TestCrossBackendParityInsertOnly drives the disk backend purely through
// the synchronous Insert path (seals happen inside Insert's Maintain), at
// a segment size small enough that sealed rows dominate.
func TestCrossBackendParityInsertOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	obs := metaWorkload(rng, 30, 6, 300)
	ref := memRef(t, obs)

	db, tbl := metaTableStorage(t, diskVariantCfg(t, 4, false))
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	querySurface(t, ref, db, "disk insert-only")
}

// TestCrossBackendParityConcurrent runs concurrent writers against both
// backends and compares the final surfaces under -race: per-shard FIFO
// apply plus first-write-wins attrs make the end state order-independent
// for this workload.
func TestCrossBackendParityConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	obs := metaWorkload(rng, 40, 8, 400)
	ref := memRef(t, obs)

	db, tbl := metaTableStorage(t, diskVariantCfg(t, 16, false))
	ing, err := tbl.StartIngest(IngestConfig{BatchRows: 32, Appliers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			wr := tbl.NewWriter()
			for i := w; i < len(obs); i += writers {
				o := obs[i]
				if err := wr.Append(o.entity, o.source, o.attrs); err != nil {
					errs <- err
					return
				}
			}
			errs <- wr.Flush()
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	querySurface(t, ref, db, "disk concurrent writers")
}

// TestCrossBackendSnapshotConversion proves Load is the conversion path
// between backends: a snapshot saved from one backend restores on the
// other with an identical query surface, in both directions.
func TestCrossBackendSnapshotConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	obs := metaWorkload(rng, 30, 6, 300)
	ref := memRef(t, obs)

	snap := saveToString(t, ref)

	disk := Open(WithBackend(diskVariantCfg(t, 8, false)))
	t.Cleanup(func() { disk.Close() })
	loadFromString(t, disk, snap)
	querySurface(t, ref, disk, "mem snapshot -> disk backend")

	// And back: the disk-restored database snapshots to the same bytes
	// and restores onto memory unchanged.
	snap2 := saveToString(t, disk)
	if snap != snap2 {
		t.Fatalf("snapshot is not backend-independent:\nmem->  %d bytes\ndisk-> %d bytes", len(snap), len(snap2))
	}
	mem := Open(WithBackend(StorageConfig{Backend: BackendMemory}))
	loadFromString(t, mem, snap2)
	querySurface(t, ref, mem, "disk snapshot -> mem backend")
}
