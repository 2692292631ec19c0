package engine

// Crash recovery for durable disk-backed tables. A durable table's
// directory is self-describing: MANIFEST.json names the table, schema
// and instance UID; per-shard checkpoint files reference the sealed
// segment files (adopted here by re-opening them in place — restart
// cost is O(manifest), no row is re-inserted); and the per-shard WAL
// holds every acknowledged row not yet covered by a checkpoint, which
// recovery replays through the ordinary batch-apply path. Replayed rows
// receive fresh sequence numbers above every persisted one — within a
// shard they re-apply in their original staging order, and a table that
// was closed cleanly recovers with an empty replay (bit-identical
// state); only a table killed mid-stream gets approximate cross-shard
// interleaving for its unsealed tail, which no estimator observes.
//
// After replay an orphan sweep removes directory litter no live state
// references — segment files from crashed seals or compactions, stray
// temp files — while WAL generations are left to the checkpoint
// machinery, which deletes them as their records become sealed.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// recoverTable re-opens one durable table from its directory. storage
// must be the resolved durable disk configuration; the directory is
// <storage.Dir>/<name>. On error nothing is deleted — the directory may
// still be recoverable by a fixed binary or by hand.
func recoverTable(name string, storage StorageConfig) (*Table, error) {
	dir := filepath.Join(storage.Dir, name)
	m, err := readTableManifest(dir)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("engine: table %q: no %s in %s", name, manifestName, dir)
	}
	if m.Name != name {
		return nil, fmt.Errorf("engine: table %q: manifest names %q", name, m.Name)
	}
	schema, err := schemaFromManifest(m.Schema)
	if err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("engine: table %q: manifest has no columns", name)
	}
	colIdx := make(map[string]int, len(schema))
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("engine: table %q: manifest has an unnamed column", name)
		}
		if _, dup := colIdx[c.Name]; dup {
			return nil, fmt.Errorf("engine: table %q: manifest repeats column %q", name, c.Name)
		}
		colIdx[c.Name] = i
	}
	t := &Table{
		name:       name,
		schema:     schema,
		colIdx:     colIdx,
		storage:    storage,
		storageDir: dir,
		srcIDs:     make(map[string]int32),
		id:         tableIDs.Add(1),
		cache:      newScanCache(defaultProgramCacheEntries, defaultPartialCacheBytes),
		uid:        m.UID,
	}
	t.hooks = t.stagedApplyHooks()

	// Shard checkpoints: the recovery points for sealed state.
	var cks [numShards]*shardCheckpoint
	var maxSeq uint64
	var srcNames []string
	for si := range t.shards {
		ck, err := readShardCheckpoint(dir, si)
		if err != nil {
			return nil, err
		}
		cks[si] = ck
		if ck == nil {
			continue
		}
		if ck.tableSeq > maxSeq {
			maxSeq = ck.tableSeq
		}
		for _, s := range ck.seqs {
			if s > maxSeq {
				maxSeq = s
			}
		}
		// The source registry is append-only, so the longest persisted
		// name table is a superset of every other shard's: seeding from it
		// resolves every lineage ID in every checkpoint.
		if len(ck.srcNames) > len(srcNames) {
			srcNames = ck.srcNames
		}
	}
	for i, s := range srcNames {
		t.srcIDs[s] = int32(i)
	}
	t.srcNames = append(t.srcNames, srcNames...)
	if len(srcNames) > 0 {
		names := append([]string(nil), t.srcNames...)
		t.srcNamesSnap.Store(&names)
		snap := make(map[string]int32, len(t.srcIDs))
		for k, v := range t.srcIDs {
			snap[k] = v
		}
		t.srcSnap.Store(&snap)
	}
	t.seq.Store(maxSeq)

	// Open the shard stores: checkpointed shards adopt their sealed
	// segment files in place, the rest start empty.
	closeOpened := func(n int) {
		for _, sh := range t.shards[:n] {
			sh.store.Close()
		}
	}
	for si := range t.shards {
		var store *shardStore
		if ck := cks[si]; ck != nil {
			store, err = openStoreFromCheckpoint(storage, schema, dir, si, ck)
			if err == nil {
				t.walApplied[si] = ck.walApplied
				t.ckptRows[si] = store.sealed
			}
		} else {
			store, err = newShardStore(storage, schema, dir, si)
		}
		if err != nil {
			closeOpened(si)
			return nil, err
		}
		t.shards[si] = &shard{store: store}
	}
	t.wal = newTableWAL(dir, storage.WALSync)

	// WAL replay: re-stage every record above the shard's applied
	// watermark into ordinary chunks and push them through the same
	// batch-apply path the appliers use (identical first-wins and
	// conflict semantics; conflicts land in the pending ingest errors).
	// All records are loaded before any apply so a mid-replay checkpoint
	// (a seal triggered by replayed volume) cannot prune generations
	// still being read.
	for si := range t.shards {
		wst, err := loadShardWAL(dir, si, schema)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.wal.shard(si).adoptRecovered(wst, t.walApplied[si])
		// Replay re-interns every string in staging order through the same
		// shard dictionary the original run used, so replayed rows get
		// exactly the codes a clean run would have assigned.
		dict := t.shards[si].store.Dict()
		var chunks []*obsChunk
		var seqs []uint64
		var cur *obsChunk
		for _, rec := range wst.recs {
			if rec.seq <= t.walApplied[si] {
				continue
			}
			for r := 0; r < rec.n; r++ {
				if cur == nil || cur.rows() >= defaultBatchRows {
					cur = t.borrowChunk()
					chunks = append(chunks, cur)
				}
				n := cur.n
				cur.ids[n] = rec.ids[r]
				cur.hashes[n] = hashEntity(rec.ids[r])
				cur.srcs[n] = t.internSource(rec.srcs[r])
				for ci := range schema {
					copyRecoveredCell(&cur.cols[ci], &rec.cols[ci], r, n, dict)
				}
				cur.n = n + 1
			}
			seqs = append(seqs, rec.seq)
		}
		if len(chunks) > 0 {
			t.applyChunks(si, chunks, nil, seqs)
			for _, c := range chunks {
				t.recycleChunk(c)
			}
		}
	}

	// Orphan sweep: everything in the directory that live state does not
	// reference — segments from crashed seals/compactions, temp files —
	// goes. WAL generations are exempt: the checkpoint machinery owns
	// their lifecycle.
	keep := map[string]bool{manifestName: true}
	for si, sh := range t.shards {
		keep[filepath.Base(ckptPath(dir, si))] = true
		for _, seg := range sh.store.segs {
			keep[filepath.Base(seg.path)] = true
		}
	}
	sweepOrphans(dir, keep)
	return t, nil
}

// copyRecoveredCell copies one decoded WAL cell into a staging chunk
// column (both sides share the stagedCol layout; the WAL carries strings,
// so string cells re-intern through the shard dictionary here).
func copyRecoveredCell(dst, src *stagedCol, srcRow, dstRow int, dict *stringDict) {
	st := src.state[srcRow]
	dst.state[dstRow] = st
	switch dst.typ {
	case TypeFloat:
		var x float64
		if st == stagedValue {
			x = src.floats[srcRow]
		}
		dst.floats[dstRow] = x
	case TypeString:
		var x string
		code := dictEmptyCode
		if st == stagedValue {
			x = src.strs[srcRow]
			code = dict.intern(x)
		}
		dst.strs[dstRow] = x
		dst.codes[dstRow] = code
	case TypeBool:
		var x bool
		if st == stagedValue {
			x = src.bools[srcRow]
		}
		dst.bools[dstRow] = x
	}
}

// sweepOrphans removes plain files in dir that keep does not reference,
// leaving WAL generation files (checkpoints delete those) and
// subdirectories alone. Best-effort: removal errors are ignored.
func sweepOrphans(dir string, keep map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || keep[name] || strings.HasSuffix(name, ".wal") {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// RecoverTables scans the DB's durable storage directory for tables a
// previous process persisted (manifest, shard checkpoints, WAL) and
// re-opens them in place: sealed segment files are adopted by reference
// — restart is O(metadata), not O(rows) — and acknowledged rows that
// never reached a segment are replayed from the WAL. Recovered tables
// are registered in the catalog and receive the DB's per-table options
// (scan-cache budgets, background ingestion) like any created table;
// names already registered are skipped. Returns the recovered names,
// sorted. A no-op returning (nil, nil) unless the DB's storage is the
// disk backend with Durable set.
func (db *DB) RecoverTables() ([]string, error) {
	storage, err := checkedStorage(db.storage)
	if err != nil {
		return nil, err
	}
	if storage.Backend != BackendDisk || !storage.Durable {
		return nil, nil
	}
	entries, err := os.ReadDir(storage.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if db.tables == nil {
		db.tables = make(map[string]*Table)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if _, exists := db.tables[name]; exists {
			continue
		}
		if m, merr := readTableManifest(filepath.Join(storage.Dir, name)); merr != nil {
			return names, fmt.Errorf("engine: recovering table %q: %w", name, merr)
		} else if m == nil {
			continue // not a durable table directory
		}
		t, rerr := recoverTable(name, storage)
		if rerr != nil {
			return names, fmt.Errorf("engine: recovering table %q: %w", name, rerr)
		}
		if aerr := db.adoptTable(t); aerr != nil {
			t.Close()
			return names, aerr
		}
		db.tables[name] = t
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
