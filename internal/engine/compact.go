package engine

// Segment compaction for the disk backend. Small ingest batches seal
// many small segment files; each one is a separate extent, so scans on a
// long-lived shard pay the per-extent work (kernel setup, a dictionary
// translation per string predicate, split boundary words) many times
// over. Compaction rewrites a shard's sealed segments into ONE merged
// segment — one extent per column, based at row 0 — behind the same seal
// machinery.
//
// Compaction never changes logical content: the merged segment holds
// exactly the same rows in the same order, identity and lineage are
// untouched, and no epoch is bumped — cached filter programs, bitmaps,
// frozen partials and whole results all remain exact (the one-epoch-
// bump-per-mutation contract counts only logical mutations). Crash
// safety: the merged file is written (and in durable mode fsynced)
// before the in-memory swap, and the old files are deleted by the
// caller only after the shard checkpoint references the merged file —
// a crash in between leaves both generations on disk, the checkpoint
// picks the consistent one, and the orphan sweep collects the loser.

import (
	"fmt"
	"os"
	"path/filepath"
)

// compact merges every sealed segment of the shard into one. It swaps
// the in-memory segment list but does NOT delete the old files: their
// paths are returned, and the caller removes them once the new state is
// referenced durably (or immediately, in non-durable mode). Caller
// holds the shard write lock.
func (s *shardStore) compact() (stalePaths []string, err error) {
	if len(s.segs) <= 1 {
		return nil, nil
	}
	n := s.sealed
	// Merged string columns re-code into a compaction-local dictionary (the
	// shard dictionary stays untouched — adopted segments may hold strings
	// the live dictionary never saw, and a rewrite is not a mutation). Each
	// source segment contributes via one dictionary-sized remap table; v1
	// files, transcoded at open, are rewritten as v2 here.
	local := newStringDict()
	cols := newTailCols(s.schema, local)
	for ci, c := range s.schema {
		col := &cols[ci]
		col.defined.grow(n)
		col.valid.grow(n)
		switch c.Type {
		case TypeFloat:
			col.floats = make([]float64, 0, n)
		case TypeString:
			col.codes = make([]uint32, 0, n)
		case TypeBool:
			col.bools = make([]bool, 0, n)
		}
		for _, seg := range s.segs {
			e := &seg.cols[ci]
			switch c.Type {
			case TypeFloat:
				col.floats = append(col.floats, e.floats[:e.n]...)
			case TypeString:
				remap := make([]uint32, len(e.dict))
				for sc, str := range e.dict {
					remap[sc] = local.intern(str)
				}
				for _, sc := range e.codes[:e.n] {
					col.codes = append(col.codes, remap[sc])
				}
			case TypeBool:
				for i := 0; i < e.n; i++ {
					col.bools = append(col.bools, e.boolAt(i))
				}
			}
			for i := 0; i < e.n; i++ {
				if e.defined.get(i) {
					col.defined.set(seg.base + i)
				}
				if e.valid.get(i) {
					col.valid.set(seg.base + i)
				}
			}
		}
	}
	dicts, err := planSegDicts(s.schema, cols, n)
	if err != nil {
		// The merged dictionary would overflow the uint32 offset bound. A
		// shard this wide keeps its current segments (scans still work, just
		// multi-extent) — same fail-safe posture as before, post-merge.
		return nil, nil
	}

	path := filepath.Join(s.dir, segFileName(s.shardIdx, s.nextSegID))
	raw := buildSegmentBytes(s.schema, cols, n, dicts)
	if err := s.writeSegmentFile(path, raw); err != nil {
		return nil, fmt.Errorf("engine: writing compacted segment: %w", err)
	}
	merged, err := openSegment(path, s.schema, 0, s.useMmap)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("engine: reopening compacted segment: %w", err)
	}
	s.nextSegID++
	for _, seg := range s.segs {
		stalePaths = append(stalePaths, seg.path)
		if seg.mapped {
			munmapFile(seg.data)
			seg.mapped = false
		}
		seg.data = nil
		seg.cols = nil
	}
	s.segs = []*segment{merged}
	s.view.Store(nil)
	return stalePaths, nil
}

// Compact force-compacts every disk-backed shard of the table: the
// current in-memory tail is sealed and all sealed segments are merged
// into one per shard, so subsequent scans run on one extent per column.
// In durable mode the shard checkpoints are rewritten so the merged
// layout is the recovery point. A no-op for the in-memory backend.
// Background compaction (StorageConfig.CompactSegments) makes explicit
// calls unnecessary for steady workloads; Compact exists for benchmarks,
// tests and load-then-serve pipelines.
func (t *Table) Compact() error {
	var firstErr error
	for si, sh := range t.shards {
		sh.mu.Lock()
		st := sh.store
		if st.dir == "" || st.closed {
			sh.mu.Unlock()
			continue
		}
		err := func() error {
			if err := st.seal(); err != nil {
				return err
			}
			var stale []string
			if len(st.segs) > 1 {
				var cerr error
				stale, cerr = st.compact()
				if cerr != nil {
					return cerr
				}
			}
			if t.checkpointShardLocked(sh, si, true) {
				for _, p := range stale {
					os.Remove(p)
				}
			}
			return nil
		}()
		sh.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: %s: compacting shard %d: %w", t.name, si, err)
		}
	}
	return firstErr
}
