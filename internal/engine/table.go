// Package engine is the lineage-preserving query engine: the "integrated
// database" of the paper's Figure 1. Tables store one record per unique
// entity (the user-visible view K) together with the lineage of which
// sources reported the entity (the multiset S). Aggregate queries are
// answered in the open world: alongside the observed value, the executor
// attaches estimates of the impact of unknown unknowns, the Section 4
// upper bound, and coverage warnings.
//
// Storage is columnar and sharded: each table hashes entities across
// fixed shards, and each shard's store (store.go) holds typed column
// vectors (float64s, dictionary-coded strings, bools) with defined/valid
// bitmaps plus a parallel lineage array (the per-entity source
// multiset). On the disk backend the store seals its column data into
// mmap'd segment files (store_disk.go); on the memory backend it never
// seals.
// Ingestion locks only the target entity's shard, and query scans run
// shard-parallel with predicates compiled once into vectorized filters
// over the store's column views (see filter.go). Every write — Insert,
// Append, Writer — goes through per-shard staging buffers applied in
// batches, with a Flush barrier for read-your-writes (see ingest.go).
package engine

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// ColumnType is the type of a table column.
type ColumnType int

// Column types.
const (
	TypeFloat ColumnType = iota
	TypeString
	TypeBool
)

func (t ColumnType) String() string {
	switch t {
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "STRING"
	case TypeBool:
		return "BOOL"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type ColumnType
}

// Schema is an ordered list of columns.
type Schema []Column

// Column returns the column with the given name.
func (s Schema) Column(name string) (Column, bool) {
	for _, c := range s {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Record is one entity's user-visible row.
type Record struct {
	// EntityID is the entity-resolved identity of the record.
	EntityID string
	// Attrs holds the column values.
	Attrs map[string]sqlparse.Value
}

// Column implements sqlparse.Row.
func (r Record) Column(name string) (sqlparse.Value, bool) {
	v, ok := r.Attrs[name]
	return v, ok
}

// numShards is the fixed shard fan-out of a table. Entities are hashed to
// shards, so shards are balanced for any realistic entity-ID distribution
// and a single entity's lineage always lives in exactly one shard.
const numShards = 16

// shard is one horizontal slice of a table: a lock, the store behind it,
// and the batched-ingestion staging area. All storage access — reads and
// writes alike — goes through store under mu, per the store's locking
// contract (store.go).
type shard struct {
	mu    sync.RWMutex
	store *shardStore

	// staging holds observations appended through the batched ingestion
	// path that have not been applied to the store yet; staged rows are
	// invisible to scans until a drain applies them (see ingest.go).
	staging stagingBuf

	// delta logs the recent applied batches, so a query holding a stale
	// cached partial catches it up instead of rescanning (delta.go). own
	// and ownErr are applyChunks' slots for Insert's private chunk and its
	// conflict. All three are guarded by mu.
	delta  deltaLog
	own    [1]*obsChunk
	ownErr error
}

func (sh *shard) rows() int { return sh.store.Rows() }

// Table is an integrated table with lineage. The zero value is not usable;
// create tables with NewTable. Tables are safe for concurrent use: inserts
// lock only the entity's shard, so writers to different shards never
// contend; reads and query scans briefly read-lock every shard at once and
// therefore observe a consistent point-in-time cut of the table.
type Table struct {
	name       string
	schema     Schema
	colIdx     map[string]int
	shards     [numShards]*shard
	seq        atomic.Uint64
	hooks      applyHooks    // staged-row apply hooks, built once (stagedApplyHooks)
	storage    StorageConfig // resolved backend configuration
	storageDir string        // this instance's segment directory ("" for mem)

	// id is process-unique, so DB-level caches keyed by it can never
	// confuse a dropped table with a later one created under the same
	// name. cache holds the table's compiled-filter and sample-partial
	// caches (see cache.go).
	id    uint64
	cache *scanCache

	// Source registry: source names are interned once per table into dense
	// int32 IDs, so lineage rows are small integer vectors and query scans
	// attribute observations to sources without hashing a string per
	// observation. The registry only grows. srcSnap is a lock-free
	// copy-on-write snapshot of srcIDs serving the hot intern path (one
	// lookup per staged/inserted observation).
	srcMu    sync.RWMutex
	srcIDs   map[string]int32
	srcNames []string
	srcSnap  atomic.Pointer[map[string]int32]
	// srcNamesSnap is the matching lock-free ID -> name snapshot, for the
	// WAL staging path (records carry source names). It is published
	// BEFORE srcSnap when a source is registered, so any ID resolved
	// through srcSnap is covered by the names snapshot read afterwards.
	srcNamesSnap atomic.Pointer[[]string]

	// Durable-mode state (zero unless StorageConfig.Durable with the disk
	// backend): uid ties snapshots to this directory's manifest, wal is
	// the per-shard staged-row log, walApplied[si] is the highest WAL
	// record seq applied to shard si (guarded by the shard's mu), and
	// ckptRows[si] is the sealed row count covered by the shard's last
	// checkpoint (also guarded by the shard's mu).
	uid        string
	wal        *tableWAL
	walApplied [numShards]uint64
	ckptRows   [numShards]int

	// ingest is the batched asynchronous ingestion state: staging
	// configuration, chunk pool, pending apply errors and counters (see
	// ingest.go).
	ingest ingestState

	// Commit listeners: subscriptions register a notification channel that
	// notifyCommit pings after each applied ingest batch (see
	// subscribe.go). subActive short-circuits the no-subscriber case to a
	// single atomic load on the batch-apply path.
	subMu        sync.Mutex
	subListeners []chan<- struct{}
	subActive    atomic.Bool
}

// NewTable creates an empty table with the given schema on the default
// storage backend (in-memory). The schema must be non-empty with unique
// column names.
func NewTable(name string, schema Schema) (*Table, error) {
	return NewTableWithStorage(name, schema, StorageConfig{})
}

// NewTableWithStorage creates an empty table on the given storage
// backend. A zero StorageConfig selects the in-memory default; see
// StorageConfig for the disk backend's knobs.
func NewTableWithStorage(name string, schema Schema, storage StorageConfig) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: table needs a name")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("engine: table %q needs at least one column", name)
	}
	colIdx := make(map[string]int, len(schema))
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("engine: table %q has an unnamed column", name)
		}
		if _, dup := colIdx[c.Name]; dup {
			return nil, fmt.Errorf("engine: table %q has duplicate column %q", name, c.Name)
		}
		colIdx[c.Name] = i
	}
	storage, err := checkedStorage(storage)
	if err != nil {
		return nil, err
	}
	t := &Table{
		name:    name,
		schema:  schema,
		colIdx:  colIdx,
		storage: storage,
		srcIDs:  make(map[string]int32),
		id:      tableIDs.Add(1),
		cache:   newScanCache(defaultProgramCacheEntries, defaultPartialCacheBytes),
	}
	t.hooks = t.stagedApplyHooks()
	dir := ""
	durable := storage.Backend == BackendDisk && storage.Durable
	if storage.Backend == BackendDisk {
		if durable {
			// Durable tables live at a STABLE path — <Dir>/<name> — so a
			// restarted process finds them again (DB.RecoverTables, snapshot
			// adoption). Creating a table is a fresh start: any previous
			// directory contents are cleared (recover an existing durable
			// table with DB.RecoverTables instead of re-creating it).
			dir = filepath.Join(storage.Dir, name)
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("engine: table %q: clearing durable directory: %w", name, err)
			}
		} else {
			// Per-table-instance directory: the PID plus the process-unique
			// id keep a dropped-and-recreated table — or a concurrent process
			// sharing the same storage root — from colliding with another
			// instance's segment files (seal() truncate-rewrites paths, which
			// must never happen underneath someone else's mapping).
			dir = filepath.Join(storage.Dir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), t.id))
		}
	}
	t.storageDir = dir
	for i := range t.shards {
		store, err := newShardStore(storage, schema, dir, i)
		if err != nil {
			for _, sh := range t.shards[:i] {
				sh.store.Close()
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
			return nil, err
		}
		t.shards[i] = &shard{store: store}
	}
	if durable {
		t.uid = newTableUID()
		m := &tableManifest{Version: manifestVersion, Name: name, UID: t.uid, Schema: manifestSchema(schema)}
		if err := writeTableManifest(dir, m); err != nil {
			for _, sh := range t.shards {
				sh.store.Close()
			}
			os.RemoveAll(dir)
			return nil, fmt.Errorf("engine: table %q: writing manifest: %w", name, err)
		}
		t.wal = newTableWAL(dir, storage.WALSync)
	}
	return t, nil
}

// tableIDs hands out process-unique table identities (see Table.id).
var tableIDs atomic.Uint64

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// StorageBackend reports which shard-storage backend serves the table.
func (t *Table) StorageBackend() Backend { return t.storage.Backend }

// Close releases the table's storage resources (the disk backend's
// segment mappings; a no-op for the in-memory backend). A durable table
// additionally seals its in-memory tails and writes final shard
// checkpoints, so a clean close recovers by pure segment adoption with
// an empty replay; rows still sitting in staging buffers stay covered
// by the WAL and are replayed by the next DB.RecoverTables. The table
// must not be used afterwards. Closing twice is a no-op.
func (t *Table) Close() error {
	var firstErr error
	for si, sh := range t.shards {
		sh.mu.Lock()
		if t.wal != nil && !sh.store.closed {
			if err := sh.store.seal(); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("engine: %s: closing shard %d: %w", t.name, si, err)
				}
			} else {
				t.checkpointShardLocked(sh, si, true)
			}
		}
		if err := sh.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	if t.wal != nil {
		if err := t.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// maintainShardLocked runs post-apply housekeeping under the caller's
// shard write lock: the store's own Maintain (segment sealing),
// compaction when the shard accumulated enough small segments, and — in
// durable mode — the shard checkpoint plus WAL-space release that makes
// the new sealed state the recovery point. A store without a directory
// does none of this. Stale segment files replaced by a compaction are
// deleted only once the checkpoint referencing the merged file is
// durable (non-durable mode deletes immediately; nothing references
// files across restarts there).
func (t *Table) maintainShardLocked(sh *shard, si int) {
	if err := sh.store.Maintain(); err != nil {
		t.recordIngestErr(fmt.Errorf("engine: %s: %w", t.name, err))
	}
	var stale []string
	if sh.store.shouldCompact() {
		var err error
		stale, err = sh.store.compact()
		if err != nil {
			t.recordIngestErr(fmt.Errorf("engine: %s: compacting shard %d: %w", t.name, si, err))
		}
	}
	if t.checkpointShardLocked(sh, si, len(stale) > 0) {
		for _, p := range stale {
			os.Remove(p)
		}
	}
}

// checkpointShardLocked persists the shard's durable metadata (segment
// list, identity, lineage, WAL watermark) when the sealed state moved
// since the last checkpoint (or force), then releases fully-applied WAL
// space. Returns whether the CURRENT segment layout is durably
// referenced (trivially true when durability is off). Caller holds the
// shard's write lock.
func (t *Table) checkpointShardLocked(sh *shard, si int, force bool) bool {
	if t.wal == nil {
		return true
	}
	st := sh.store
	if st.closed {
		return true
	}
	if !force && st.sealed == t.ckptRows[si] {
		return true
	}
	if st.tailRows() != 0 {
		// A failed seal left applied rows in the tail: the checkpoint
		// format covers sealed rows only, and the previous checkpoint plus
		// the retained WAL still cover everything, so skip rather than
		// write an inconsistent state.
		if force {
			t.recordIngestErr(fmt.Errorf("engine: %s: shard %d checkpoint skipped: %d unsealed tail rows", t.name, si, st.tailRows()))
		}
		return false
	}
	safe := t.walSafeApplied(si)
	ck := &shardCheckpoint{
		walApplied: safe,
		nextSegID:  st.nextSegID,
		tableSeq:   t.seq.Load(),
		segs:       make([]segRef, len(st.segs)),
		srcNames:   t.sourceNameTable(),
		ids:        st.ids,
		seqs:       st.seqs,
		lineage:    st.lineage,
	}
	for i, seg := range st.segs {
		ck.segs[i] = segRef{name: filepath.Base(seg.path), nrows: seg.nrows}
	}
	if err := writeShardCheckpoint(t.storageDir, si, ck); err != nil {
		t.recordIngestErr(fmt.Errorf("engine: %s: %w", t.name, err))
		return false
	}
	t.ckptRows[si] = st.sealed
	t.wal.shard(si).checkpoint(safe)
	return true
}

// walSafeApplied computes the WAL watermark a checkpoint may persist:
// the highest record seq applied to the shard, clamped below any record
// that is still pending in staging or in an in-flight drain. Every record
// is logged under the staging mutex and drains apply in log order, so
// the clamp never fires on a consistent state; it stays as the guard
// that keeps a checkpoint from releasing a record whose rows are not in
// the store. Caller holds the shard's write lock (so walApplied is
// stable); the staging mutex is taken briefly underneath it.
func (t *Table) walSafeApplied(si int) uint64 {
	safe := t.walApplied[si]
	st := &t.shards[si].staging
	st.mu.Lock()
	if len(st.applying) > 0 && st.applying[0] <= safe {
		safe = st.applying[0] - 1
	}
	if len(st.walPending) > 0 && st.walPending[0] <= safe {
		safe = st.walPending[0] - 1
	}
	st.mu.Unlock()
	return safe
}

// discardStorage is Close plus removal of the instance's segment
// directory — for tables that are being abandoned (a failed snapshot
// load), not merely closed.
func (t *Table) discardStorage() {
	t.Close()
	if t.storageDir != "" {
		os.RemoveAll(t.storageDir)
	}
}

// CacheStats snapshots the table's compiled-filter and sample-partial
// cache counters, plus the string-dictionary footprint (cardinality and
// resident bytes summed over the table's shards).
func (t *Table) CacheStats() CacheStats {
	s := t.cache.stats()
	for _, sh := range t.shards {
		entries, bytes := sh.store.Dict().stats()
		s.DictEntries += entries
		s.DictBytes += bytes
	}
	return s
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// internSource returns the table-global ID for a source name, registering
// it on first use. The hot path is a lock-free lookup in the srcSnap
// copy-on-write snapshot; only the first mention of a new source takes
// the registry lock (and republishes the snapshot). It never takes a
// shard lock, so it can be called on the insert/staging path before the
// shard is locked.
func (t *Table) internSource(name string) int32 {
	if m := t.srcSnap.Load(); m != nil {
		if id, ok := (*m)[name]; ok {
			return id
		}
	}
	t.srcMu.Lock()
	defer t.srcMu.Unlock()
	if id, ok := t.srcIDs[name]; ok {
		return id
	}
	id := int32(len(t.srcNames))
	t.srcIDs[name] = id
	t.srcNames = append(t.srcNames, name)
	names := make([]string, len(t.srcNames))
	copy(names, t.srcNames)
	// Names snapshot first: a reader that resolves an ID through the map
	// snapshot below must find the name snapshot already covering it.
	t.srcNamesSnap.Store(&names)
	snap := make(map[string]int32, len(t.srcIDs))
	for k, v := range t.srcIDs {
		snap[k] = v
	}
	t.srcSnap.Store(&snap)
	return id
}

// srcNamesCovering returns a stable ID -> name slice covering at least
// maxID: the lock-free snapshot on the hot path, the locked copy as the
// defensive fallback.
func (t *Table) srcNamesCovering(maxID int32) []string {
	if p := t.srcNamesSnap.Load(); p != nil && int(maxID) < len(*p) {
		return *p
	}
	return t.sourceNameTable()
}

// sourceNameTable returns a point-in-time copy of the ID -> name table.
// IDs below the returned length are stable forever.
func (t *Table) sourceNameTable() []string {
	t.srcMu.RLock()
	defer t.srcMu.RUnlock()
	out := make([]string, len(t.srcNames))
	copy(out, t.srcNames)
	return out
}

// hashEntity is the FNV-1a hash of an entity ID. Its low bits pick the
// ID's shard (shardOf) and the shard's entity index probes with all of
// it, so the staging path hashes each ID once and carries the hash in the
// chunk to the apply.
func hashEntity(entityID string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(entityID); i++ {
		h ^= uint64(entityID[i])
		h *= prime64
	}
	return h
}

// shardOf returns the shard of an entity ID with hashEntity h.
func shardOf(h uint64) int { return int(h & (numShards - 1)) }

// shardFor hashes an entity ID to its shard.
func (t *Table) shardFor(entityID string) *shard {
	return t.shards[shardOf(hashEntity(entityID))]
}

// rlockAll acquires every shard's read lock in index order and returns
// the matching release. Multi-shard reads (counts, records, scans,
// snapshots) hold all shards at once so they observe a point-in-time cut
// of the table, exactly like the old single table lock — writers on other
// shards block only for the duration of the read.
func (t *Table) rlockAll() func() {
	for _, sh := range t.shards {
		sh.mu.RLock()
	}
	return func() {
		for _, sh := range t.shards {
			sh.mu.RUnlock()
		}
	}
}

// NumRecords returns the number of unique entities (|K|).
func (t *Table) NumRecords() int {
	defer t.rlockAll()()
	total := 0
	for _, sh := range t.shards {
		total += sh.rows()
	}
	return total
}

// NumObservations returns the multiset size |S|.
func (t *Table) NumObservations() int {
	defer t.rlockAll()()
	total := 0
	for _, sh := range t.shards {
		total += sh.store.Obs()
	}
	return total
}

// Insert records that source reported the entity with the given attribute
// values, synchronously: when it returns, the observation is applied and
// visible to queries. The first insertion of an entity fixes its attribute
// values (the model assumes cleaned, fused input); later insertions from
// new sources only extend the lineage, and a value mismatch is reported
// as an error while still counting the observation.
//
// Insert is a one-row batch on the ingestion path (ingest.go): the row is
// validated and staged into a private chunk exactly like Append, then the
// entity's shard is drained with that chunk applied last. Hence:
//   - every row is validated against the schema, a known entity included;
//   - rows staged earlier on the entity's shard (Append, AppendRow, pushed
//     Writer chunks) become visible with it, and when one of them already
//     reported the entity with a different value, that first value is
//     kept and the conflict is Insert's error;
//   - the apply is an ordinary batch, so live subscriptions are notified;
//   - apply-time conflicts of the earlier staged rows are recorded for the
//     next Flush, not returned here.
//
// On a durable table the row is logged to the WAL after every row staged
// before it and before any row staged later, so replay restores the order
// the drain applied. The record carries the row's values even for a known
// entity, like a staged row's; replay is first-wins, so the state is the
// same, and a conflict it replays is reported again by the first Flush
// after recovery, as for Append. A failed log append fails the Insert
// with its own row not applied, so a nil return means the row is in the
// log. A failed fsync after a complete write also fails the Insert, but
// the written record may still replay at recovery. For streaming
// workloads prefer the batched staging path (Append/AppendRow/Writer),
// which amortizes the locking and epoch bumps across whole batches.
func (t *Table) Insert(entityID, source string, attrs map[string]sqlparse.Value) error {
	row := rowCells{named: true, attrs: attrs}
	if err := t.checkRow("Insert", entityID, source, &row); err != nil {
		return err
	}
	sid := t.internSource(source)
	h := hashEntity(entityID)
	si := shardOf(h)
	c := t.borrowChunk()
	defer t.recycleChunk(c)
	if err := c.stageRow(t.schema, entityID, h, sid, &row, t.shards[si].store.Dict()); err != nil {
		return fmt.Errorf("engine: %s: entity %q: %w", t.name, entityID, err)
	}
	return t.drainShard(si, c)
}

// Records returns the user-visible records in insertion order.
func (t *Table) Records() []Record {
	rows := t.rowsSnapshot()
	out := make([]Record, len(rows))
	for i, r := range rows {
		out[i] = Record{EntityID: r.ID, Attrs: r.Attrs}
	}
	return out
}

// sourceIDCounts tallies, per table-global source ID, how many entities
// each source reported, under per-shard read locks. The name table is
// snapshotted while the shard locks are held: a source is always interned
// before its first lineage write, so every ID seen in lineage resolves.
func (t *Table) sourceIDCounts() (counts []int, names []string) {
	release := t.rlockAll()
	names = t.sourceNameTable()
	counts = make([]int, len(names))
	for _, sh := range t.shards {
		v := sh.store.View()
		for _, srcs := range v.lineage[:v.rows] {
			for _, sid := range srcs {
				counts[sid]++
			}
		}
	}
	release()
	return counts, names
}

// Sources returns the distinct source names with at least one lineage
// mention, sorted.
func (t *Table) Sources() []string {
	counts, names := t.sourceIDCounts()
	out := make([]string, 0, len(names))
	for sid, c := range counts {
		if c > 0 {
			out = append(out, names[sid])
		}
	}
	sort.Strings(out)
	return out
}

// ObservationCount returns how many sources reported the entity.
func (t *Table) ObservationCount(entityID string) int {
	sh := t.shardFor(entityID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	row, ok := sh.store.Lookup(entityID)
	if !ok {
		return 0
	}
	return len(sh.store.Lineage(row))
}

// rowData is one entity's snapshot view (persistence and tooling).
type rowData struct {
	ID      string
	Attrs   map[string]sqlparse.Value
	Sources []string
}

// rowsSnapshot returns every row (attrs, sorted sources) in insertion
// order, under per-shard read locks: the one row walk behind Records and
// snapshot persistence. It is backend-agnostic — the walk
// goes through the store views — so snapshots serialize identically from
// either backend.
func (t *Table) rowsSnapshot() []rowData {
	type seqRow struct {
		seq uint64
		row rowData
	}
	var all []seqRow
	release := t.rlockAll()
	names := t.sourceNameTable()
	for _, sh := range t.shards {
		v := sh.store.View()
		for row := 0; row < v.rows; row++ {
			attrs := make(map[string]sqlparse.Value, len(t.schema))
			for ci := range v.cols {
				if val, ok := v.cols[ci].value(row); ok {
					attrs[t.schema[ci].Name] = val
				}
			}
			srcs := make([]string, len(v.lineage[row]))
			for i, sid := range v.lineage[row] {
				srcs[i] = names[sid]
			}
			sort.Strings(srcs)
			all = append(all, seqRow{v.seqs[row], rowData{ID: v.ids[row], Attrs: attrs, Sources: srcs}})
		}
	}
	release()
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]rowData, len(all))
	for i, sr := range all {
		out[i] = sr.row
	}
	return out
}

// GroupSample is one group of a GROUP BY partition.
type GroupSample struct {
	// Key is the grouping column's value for this group.
	Key sqlparse.Value
	// Sample is the observation multiset restricted to the group.
	Sample *freqstats.Sample
}

// Shard scans materialize into freqstats.Partial values: one shard's kept
// rows with their lineage copied out of the store (store rows can be
// mutated by later inserts once the scan's read lock is released) into the
// partial's arena — no per-observation string hashing, no per-part source
// tallies. Partials are self-contained, so beyond feeding the immediate
// merge they are the unit of the per-shard partial cache (cache.go): a
// frozen partial built at a shard's current epoch answers the shard's
// contribution to a repeated query without rescanning.

// samplePartPool recycles mutable scan partials across queries: a steady
// query load reuses the rows and srcBuf arrays at their high-water
// capacity instead of growing fresh ones per shard per scan.
var samplePartPool = sync.Pool{New: func() any { return new(freqstats.Partial) }}

func borrowSamplePart() *freqstats.Partial { return samplePartPool.Get().(*freqstats.Partial) }

// releaseSamplePart returns a partial's arrays to the pool once its rows
// have been merged into a sample. Frozen partials are cache-owned —
// published by publishPartial, potentially shared with concurrent merges
// — and are never recycled; dropping the reference leaves them to the
// cache (and eventually the GC after eviction).
func releaseSamplePart(p *freqstats.Partial) {
	if p == nil || p.Frozen() {
		return
	}
	p.Reset()
	samplePartPool.Put(p)
}

// appendViewRow appends one kept store row (and its lineage copy) to the
// partial.
func appendViewRow(p *freqstats.Partial, v *storeView, row int, value float64) {
	p.AppendRow(v.seqs[row], v.ids[row], value, v.lineage[row])
}

// selectionFor returns the selection bitmap of the compiled predicate
// over the rows of one shard view from row from on (every such row for a
// nil program) in a pooled bitmap the caller returns with releaseBitmap.
// The caller must hold the shard's read lock.
func (t *Table) selectionFor(v *storeView, prog *filterProgram, from int) (*bitmap, error) {
	all := borrowBitmap(v.rows)
	all.setFrom(from)
	if prog == nil {
		return all, nil
	}
	defer releaseBitmap(all)
	out := borrowBitmap(v.rows)
	if err := prog.eval(v, all, out); err != nil {
		releaseBitmap(out)
		return nil, fmt.Errorf("engine: %s: %w", t.name, err)
	}
	return out, nil
}

// scanShard filters one shard with the compiled predicate and collects the
// kept rows with their lineage. attrCol < 0 means COUNT(*)-style
// aggregation (value 0, NULLs kept). The shard must be read-locked by the
// caller.
func (t *Table) scanShard(sh *shard, attrCol int, prog *filterProgram) (*freqstats.Partial, error) {
	part := borrowSamplePart()
	if err := t.scanRows(part, sh, attrCol, prog, 0); err != nil {
		releaseSamplePart(part)
		return nil, err
	}
	return part, nil
}

// scanRows appends to part the shard's kept rows from row from on, in row
// order, as scanShard collects them. The shard must be read-locked by the
// caller.
func (t *Table) scanRows(part *freqstats.Partial, sh *shard, attrCol int, prog *filterProgram, from int) error {
	if sh.rows() == from {
		return nil
	}
	v := sh.store.View()
	sel, err := t.selectionFor(v, prog, from)
	if err != nil {
		return err
	}
	defer releaseBitmap(sel)
	// Presize from the selection's popcount: rows is an exact upper bound
	// (NULL attrs may drop some), and the lineage arena is sized by the
	// shard's observed obs-per-row ratio. A pooled part usually already
	// carries the capacity from earlier scans.
	nSel := sel.count()
	obsEst := int(int64(sh.store.Obs()) * int64(nSel) / int64(v.rows))
	obsEst += obsEst/8 + 8
	part.Grow(nSel, obsEst)
	if attrCol < 0 {
		sel.forEachSet(func(row int) {
			appendViewRow(part, v, row, 0)
		})
		return nil
	}
	// Extent-wise walk of the aggregate column: the selection ascends, so
	// kept rows land in global row order exactly as a flat loop would.
	// Extents wholly below from hold no selected row.
	cv := &v.cols[attrCol]
	for ei := range cv.exts {
		if ext := &cv.exts[ei]; ext.base+ext.n > from {
			gatherFloats(sel, ext, func(row int, value float64) {
				appendViewRow(part, v, row, value)
			})
		}
	}
	return nil
}

// gatherFloats walks the selected rows of one float-column extent and
// calls keep(row, value) for every defined, non-NULL row — the
// NULL-skipping gather of SQL aggregates. It inspects 64 extent rows per
// iteration at any base: the keep word is three ANDs, and an all-ones word
// (a dense run — the common shape under range predicates) becomes a
// straight slab copy with no per-row bit tests.
func gatherFloats(sel *bitmap, ext *colExtent, keep func(row int, value float64)) {
	nw := (ext.n + 63) >> 6
	vals := ext.floats
	for w := 0; w < nw; w++ {
		selw := ext.loadWord(sel, w)
		lo := w << 6
		if lo+64 > ext.n {
			selw &= ext.tailMask()
		}
		if selw == 0 {
			continue
		}
		keepw := selw & ext.defined.words[w] & ext.valid.words[w]
		gbase := ext.base + lo
		if keepw == ^uint64(0) {
			for i, v := range vals[lo : lo+64] {
				keep(gbase+i, v)
			}
			continue
		}
		for keepw != 0 {
			i := bits.TrailingZeros64(keepw)
			keep(gbase+i, vals[lo+i])
			keepw &= keepw - 1
		}
	}
}

// mergePartials folds shard partials into one freqstats.Sample via
// freqstats.MergePartials (the k-way seq merge — see its doc for the
// ordering and attribution guarantees) and, under selfCheck, re-verifies
// the merged sample's invariants. Cached (frozen) and freshly scanned
// partials mix freely; the output is bitwise-identical either way.
func mergePartials(names []string, parts []*freqstats.Partial) (*freqstats.Sample, error) {
	s, err := freqstats.MergePartials(names, parts)
	if err != nil {
		return nil, err
	}
	if selfCheck {
		if err := s.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("engine: merged sample failed self-check: %w", err)
		}
	}
	return s, nil
}

// selfCheck gates a full freqstats.Sample.CheckInvariants pass — including
// the sum_j n_j == n attribution-exactness invariant — on every merged
// scan result. The engine's test binary turns it on (see
// attribution_test.go), so every query any engine test issues re-verifies
// the invariants; production queries skip the O(n) re-verification.
var selfCheck = false

// checkAggregateColumn resolves attr to a column index (-1 for COUNT(*)).
func (t *Table) checkAggregateColumn(attr string) (int, error) {
	if attr == "" {
		return -1, nil
	}
	ci, ok := t.colIdx[attr]
	if !ok {
		return 0, fmt.Errorf("engine: %s: %w %q", t.name, ErrUnknownColumn, attr)
	}
	if t.schema[ci].Type != TypeFloat {
		return 0, fmt.Errorf("engine: %s: cannot aggregate non-numeric column %q (%s): %w", t.name, attr, t.schema[ci].Type, ErrUnknownColumn)
	}
	return ci, nil
}

// Sample builds the freqstats sample over the numeric attribute attr,
// restricted to records satisfying the predicate (nil means all). Records
// whose attr is NULL are skipped, mirroring SQL aggregate semantics. For
// COUNT(*), pass attr == "" to aggregate with value 0 per entity. The scan
// runs shard-parallel with the predicate compiled once into a vectorized
// filter.
func (t *Table) Sample(attr string, where sqlparse.Expr) (*freqstats.Sample, error) {
	return t.SampleContext(context.Background(), attr, where)
}

// SampleContext is Sample under a context: cancellation is observed
// before each shard's scan and returns ctx.Err(); already-scanned shards
// may have published their (complete) partials to the scan cache.
func (t *Table) SampleContext(ctx context.Context, attr string, where sqlparse.Expr) (*freqstats.Sample, error) {
	s, _, err := t.sampleWithEpochs(ctx, attr, where)
	return s, err
}

// sampleWithEpochs is Sample plus the vector of shard write epochs
// observed under the scan's read locks — the exact version of the data
// the sample was built from, used by the executor's result cache. The
// scan is incremental: shards whose epoch still matches a cached partial
// are served from the partial cache and only dirty shards are rescanned
// (see scanPartials).
func (t *Table) sampleWithEpochs(ctx context.Context, attr string, where sqlparse.Expr) (*freqstats.Sample, [numShards]uint64, error) {
	var epochs [numShards]uint64
	attrCol, err := t.checkAggregateColumn(attr)
	if err != nil {
		return nil, epochs, err
	}
	prog, key, err := t.compiledFilter(where)
	if err != nil {
		return nil, epochs, err
	}
	parts, epochs, names, err := t.scanPartials(ctx, attr, attrCol, key, prog)
	if err != nil {
		return nil, epochs, err
	}
	s, err := mergePartials(names, parts[:])
	// The merge copied every row and lineage cell into the sample; the
	// mutable partials go back to the scan pool (frozen ones stay with
	// the partial cache).
	for _, p := range parts {
		releaseSamplePart(p)
	}
	return s, epochs, err
}

// scanPartials produces one partial per shard for (attr, predicate) at
// the epoch vector observed under the scan's read locks. Shards whose
// cached partial was built at their current epoch are served from the
// partial cache — a cached partial is frozen, shared read-only, and never
// rescanned. A shard whose epoch moved is caught up from its stale cached
// partial when the shard's delta log covers the gap (catchUp, which scans
// only the rows stored since), and scanned in full otherwise. Fresh
// partials within the cache's byte budget are frozen and published for
// the next query. names is the source-ID -> name snapshot taken under the
// same locks; IDs are stable forever, so it also resolves every lineage
// ID in partials cached by earlier scans.
func (t *Table) scanPartials(ctx context.Context, attr string, attrCol int, key string, prog *filterProgram) (parts [numShards]*freqstats.Partial, epochs [numShards]uint64, names []string, err error) {
	release := t.rlockAll()
	names = t.sourceNameTable()
	epochs = t.epochsLocked()
	err = t.forEachShard(ctx, func(i int, sh *shard) error {
		pk := partialKey{expr: key, attr: attr, shard: i}
		cached, builtAt, hit := t.cache.lookupPartial(pk, epochs[i])
		if hit {
			parts[i] = cached
			return nil
		}
		p, scanErr := t.catchUp(sh, cached, builtAt, attrCol, prog)
		if scanErr != nil {
			return scanErr
		}
		t.publishPartial(pk, epochs[i], p)
		parts[i] = p
		return nil
	})
	release()
	if err != nil {
		for _, p := range parts {
			releaseSamplePart(p)
		}
		return parts, epochs, nil, err
	}
	return parts, epochs, names, nil
}

// publishPartial freezes and caches a freshly scanned partial when it
// fits the partial cache's byte budget. Freezing before publication makes
// the cached value immutable, so later queries (and this one's merge)
// share it without copies or coordination; a partial the cache rejects
// stays mutable and returns to the scan pool after the merge.
func (t *Table) publishPartial(pk partialKey, epoch uint64, p *freqstats.Partial) {
	if !t.cache.acceptsPartial(pk, p.FootprintBytes()) {
		return
	}
	p.Freeze()
	t.cache.storePartial(pk, epoch, p)
}

// compiledFilter returns the compiled program for a predicate, reusing
// the table's program cache: programs are pure functions of (schema,
// canonical predicate text) and the schema is fixed at creation, so each
// predicate compiles once per table. The canonical key is returned for
// the downstream partial cache.
func (t *Table) compiledFilter(where sqlparse.Expr) (*filterProgram, string, error) {
	if where == nil {
		return nil, "", nil
	}
	key := filterKey(where)
	if prog, ok := t.cache.lookupProgram(key); ok {
		return prog, key, nil
	}
	prog, err := compileFilter(t.schema, t.colIdx, where)
	if err != nil {
		return nil, "", fmt.Errorf("engine: %s: %w", t.name, err)
	}
	t.cache.storeProgram(key, prog)
	return prog, key, nil
}

// epochsLocked snapshots every shard's write epoch. Locking contract: the
// caller must hold at least the read lock of every shard (rlockAll), so
// the vector is one consistent point-in-time cut — the same cut any scan
// running under those locks observes. This is the single epoch-capture
// helper; every consumer (scans, the result-cache key path, cached-result
// verification) goes through it or through epochVector.
func (t *Table) epochsLocked() [numShards]uint64 {
	var epochs [numShards]uint64
	for i, sh := range t.shards {
		epochs[i] = sh.store.Epoch()
	}
	return epochs
}

// epochVector is epochsLocked behind its own all-shard read-lock
// acquisition, for callers not already inside a locked region.
func (t *Table) epochVector() [numShards]uint64 {
	release := t.rlockAll()
	epochs := t.epochsLocked()
	release()
	return epochs
}

// groupPart is one shard's contribution to one GROUP BY group.
type groupPart struct {
	key  sqlparse.Value
	part freqstats.Partial
}

// GroupedSamples partitions the table by the groupBy column and builds the
// per-group observation sample over attr (as Sample does), restricted to
// records satisfying the predicate. Groups are ordered by key (numbers
// before strings before booleans before NULL, each ascending) for
// deterministic output. Records whose groupBy value is NULL form their own
// group, mirroring SQL.
func (t *Table) GroupedSamples(attr, groupBy string, where sqlparse.Expr) ([]GroupSample, error) {
	return t.GroupedSamplesContext(context.Background(), attr, groupBy, where)
}

// GroupedSamplesContext is GroupedSamples under a context (see
// SampleContext for the cancellation contract).
func (t *Table) GroupedSamplesContext(ctx context.Context, attr, groupBy string, where sqlparse.Expr) ([]GroupSample, error) {
	g, _, err := t.groupedSamplesWithEpochs(ctx, attr, groupBy, where)
	return g, err
}

// groupedSamplesWithEpochs is GroupedSamples plus the shard epoch vector
// observed during the scan (see sampleWithEpochs).
func (t *Table) groupedSamplesWithEpochs(ctx context.Context, attr, groupBy string, where sqlparse.Expr) ([]GroupSample, [numShards]uint64, error) {
	var epochs [numShards]uint64
	groupCol, ok := t.colIdx[groupBy]
	if !ok {
		return nil, epochs, fmt.Errorf("engine: %s: %w %q in GROUP BY", t.name, ErrUnknownColumn, groupBy)
	}
	attrCol, err := t.checkAggregateColumn(attr)
	if err != nil {
		return nil, epochs, err
	}
	prog, _, err := t.compiledFilter(where)
	if err != nil {
		return nil, epochs, err
	}
	shardGroups := make([]map[string]*groupPart, numShards)
	release := t.rlockAll()
	names := t.sourceNameTable()
	epochs = t.epochsLocked()
	err = t.forEachShard(ctx, func(i int, sh *shard) error {
		g, err := t.scanShardGrouped(sh, attrCol, groupCol, prog)
		if err != nil {
			return err
		}
		shardGroups[i] = g
		return nil
	})
	release()
	if err != nil {
		return nil, epochs, err
	}

	// Merge per-shard groups by key.
	merged := map[string][]*groupPart{}
	var order []string
	for _, groups := range shardGroups {
		for keyStr, gp := range groups {
			if _, seen := merged[keyStr]; !seen {
				order = append(order, keyStr)
			}
			merged[keyStr] = append(merged[keyStr], gp)
		}
	}
	sort.Strings(order)
	out := make([]GroupSample, 0, len(order))
	for _, keyStr := range order {
		gps := merged[keyStr]
		parts := make([]*freqstats.Partial, len(gps))
		for i, gp := range gps {
			parts[i] = &gp.part
		}
		sample, err := mergePartials(names, parts)
		if err != nil {
			return nil, epochs, err
		}
		out = append(out, GroupSample{Key: gps[0].key, Sample: sample})
	}
	return out, epochs, nil
}

// scanShardGrouped is scanShard with a per-group partition step. The shard
// must be read-locked by the caller.
func (t *Table) scanShardGrouped(sh *shard, attrCol, groupCol int, prog *filterProgram) (map[string]*groupPart, error) {
	groups := map[string]*groupPart{}
	if sh.rows() == 0 {
		return groups, nil
	}
	v := sh.store.View()
	sel, err := t.selectionFor(v, prog, 0)
	if err != nil {
		return nil, err
	}
	defer releaseBitmap(sel)
	groupCV := &v.cols[groupCol]
	// Dictionary fast path for string group columns: kept rows arrive in
	// ascending order, so the group extent advances monotonically, and
	// within a dictionary extent groups resolve through a dense
	// code-indexed table — the per-row key rendering (an allocation) and
	// map hash only run once per distinct code per extent.
	var (
		gExt   *colExtent
		gEnd   int
		byCode []*groupPart
	)
	keep := func(row int, value float64) {
		if row >= gEnd {
			gExt, _ = groupCV.extentAt(row)
			gEnd = gExt.base + gExt.n
			byCode = nil
			if gExt.codes != nil {
				byCode = make([]*groupPart, len(gExt.dict))
			}
		}
		var gp *groupPart
		if i := row - gExt.base; byCode != nil && gExt.defined.get(i) && gExt.valid.get(i) {
			c := gExt.codes[i]
			gp = byCode[c]
			if gp == nil {
				gk := sqlparse.StringValue(gExt.dict[c])
				keyStr := groupKeyString(gk)
				gp = groups[keyStr]
				if gp == nil {
					gp = &groupPart{key: gk}
					groups[keyStr] = gp
				}
				byCode[c] = gp
			}
		} else {
			gk, ok := groupCV.value(row)
			if !ok {
				gk = sqlparse.Null()
			}
			gk.Num += 0 // the group of -0 and 0 reports key 0
			keyStr := groupKeyString(gk)
			var exists bool
			gp, exists = groups[keyStr]
			if !exists {
				gp = &groupPart{key: gk}
				groups[keyStr] = gp
			}
		}
		appendViewRow(&gp.part, v, row, value)
	}
	if attrCol < 0 {
		sel.forEachSet(func(row int) {
			keep(row, 0)
		})
		return groups, nil
	}
	cv := &v.cols[attrCol]
	for ei := range cv.exts {
		gatherFloats(sel, &cv.exts[ei], keep)
	}
	return groups, nil
}

// groupKeyString renders a group key with a kind prefix so sorted output
// is deterministic and kinds never interleave. A number is its exact
// IEEE bits, sign-flipped so the hex digits sort in numeric order: -0
// folds into 0, and every NaN is one group above +Inf.
func groupKeyString(v sqlparse.Value) string {
	switch v.Kind {
	case sqlparse.ValueNumber:
		u := math.Float64bits(v.Num + 0) // -0 + 0 is +0
		switch {
		case math.IsNaN(v.Num):
			u = math.MaxUint64
		case u>>63 != 0:
			u = ^u
		default:
			u |= 1 << 63
		}
		return fmt.Sprintf("0:%016x", u)
	case sqlparse.ValueString:
		return "1:" + v.Str
	case sqlparse.ValueBool:
		return fmt.Sprintf("2:%v", v.Bool)
	default:
		return "3:null"
	}
}
