package engine

// Shard storage. Each shard's rows live in one shardStore: entity
// identity, sequence numbers and lineage in storeBase, and the typed
// column data in an in-memory columnar tail ([]colVector) plus the
// immutable segments sealed from earlier tails (store_disk.go). Whether a
// store seals is fixed when it is built: a store with a directory (the
// disk backend) seals its tail into a segment file once the tail reaches
// StorageConfig.SegmentRows, then compacts and, in durable mode,
// checkpoints its segments; a store without one (the memory backend)
// never touches the disk, so every row stays in the tail.
//
// Scans never call per-row methods: a scan asks the store once for a
// storeView — typed column extents plus the identity/lineage arrays —
// and iterates slices. A store that never sealed has one extent per
// column, so its kernels run one flat loop.
//
// Locking contract: a shardStore is NOT internally synchronized. The
// owning shard's RWMutex serializes access: mutators (ApplyBatch,
// BumpEpoch, Maintain) run under the shard write lock, readers (View,
// Lookup, ...) under at least the read lock, and a storeView is only
// valid while the lock that produced it is held.
//
// Epoch contract: the store carries the shard's write epoch but never
// advances it by itself. Callers bump it exactly once per applied batch
// that changed the store (the one-bump-per-batch contract ApplyBatch
// reports `changed` for) — which is what keeps the partial and
// whole-result caches exact (see cache.go) and the delta log complete
// (delta.go). Sealing and compaction move no epoch: they change where
// rows live, not what they hold.

import (
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Backend selects where a table's shard stores keep their column data:
// in memory only, or sealed into segment files on disk.
type Backend int

// Available storage backends. The zero value resolves to the process
// default (memory, unless the test harness overrides it — see
// defaultStorage).
const (
	BackendDefault Backend = iota
	BackendMemory
	BackendDisk
)

func (b Backend) String() string {
	switch b {
	case BackendDefault:
		return "default"
	case BackendMemory:
		return "mem"
	case BackendDisk:
		return "disk"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend maps the CLI spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "default":
		return BackendDefault, nil
	case "mem", "memory":
		return BackendMemory, nil
	case "disk":
		return BackendDisk, nil
	default:
		return 0, fmt.Errorf("engine: unknown storage backend %q (want mem or disk)", s)
	}
}

// StorageConfig selects and configures the shard-storage backend of a
// table (or of every table of a DB, via WithBackend). The zero value is
// the in-memory default.
type StorageConfig struct {
	// Backend picks the implementation; BackendDefault means memory.
	Backend Backend
	// Dir is the root directory for disk-backed tables (required for
	// BackendDisk). Each table manages per-shard segment files in its own
	// subdirectory.
	Dir string
	// SegmentRows is the disk backend's seal threshold: once a shard's
	// in-memory tail reaches this many rows it is sealed into an
	// immutable on-disk segment. 0 means the default (4096).
	SegmentRows int
	// DisableMmap forces the disk backend's ReadAt fallback: segments are
	// loaded into aligned heap buffers instead of being memory-mapped.
	// The scan path is identical either way; only residency differs.
	DisableMmap bool
	// Durable switches the disk backend into its crash-durable mode: each
	// table lives in a STABLE directory (<Dir>/<table name>) with a
	// manifest, per-shard checkpoint files, and a write-ahead log of staged
	// ingest chunks. Acknowledged rows (a returned Append/Insert, a Writer
	// flush) survive SIGKILL via WAL replay, and DB.RecoverTables /
	// snapshot Load re-open the sealed segment files in place instead of
	// re-inserting rows. Off (the default), the disk backend keeps its
	// historical per-process working-set semantics: a unique directory per
	// table instance, no WAL, files discarded freely.
	Durable bool
	// WALSync is the durable mode's fsync cadence: the WAL file is synced
	// after every N appended records. 0 means the default (64); negative
	// means never (the write() still reaches the kernel, so rows survive
	// SIGKILL either way — fsync only matters for power/OS loss). 1 is
	// fsync-per-record. Ignored unless Durable.
	WALSync int
	// CompactSegments is the per-shard compaction trigger: when a seal
	// leaves a shard with at least this many segment files, they are
	// rewritten into one merged segment (one extent per column, so scans
	// hit the single-extent fast paths). 0 means the default (8); negative
	// disables compaction. Compaction never changes logical content or
	// epochs; old files are deleted only after the merged segment is
	// durable.
	CompactSegments int
}

// defaultStorage is the storage used when a table is created without an
// explicit configuration (NewTable, or a DB opened without WithBackend).
// It is the in-memory backend in production; the engine test harness
// points it at other backends to run the whole test package per backend
// (see TestMain in backend_test.go and the UU_ENGINE_BACKEND matrix in
// CI).
var defaultStorage StorageConfig

// resolveStorage applies the default to a zero/partial config.
func resolveStorage(cfg StorageConfig) StorageConfig {
	if cfg.Backend == BackendDefault {
		base := defaultStorage
		if base.Backend == BackendDefault {
			base.Backend = BackendMemory
		}
		return base
	}
	return cfg
}

// checkedStorage resolves cfg and rejects a configuration no table can be
// stored with: an unknown backend, or the disk backend without a
// directory, which would otherwise resolve its table directories against
// the working directory. Table creation, snapshot loading and durable
// recovery all resolve their storage here, so a resolved disk
// configuration always gives its stores a directory and a memory one
// never does.
func checkedStorage(cfg StorageConfig) (StorageConfig, error) {
	cfg = resolveStorage(cfg)
	switch {
	case cfg.Backend == BackendDisk && cfg.Dir == "":
		return cfg, fmt.Errorf("engine: disk storage backend needs a directory (StorageConfig.Dir)")
	case cfg.Backend != BackendMemory && cfg.Backend != BackendDisk:
		return cfg, fmt.Errorf("engine: unknown storage backend %v", cfg.Backend)
	}
	return cfg, nil
}

// applyHooks carries the table-side state shardStore.ApplyBatch needs
// without exposing the Table: the table's global sequence counter (a
// new row takes seq.Add(1)), conflict reporting (apply-time value
// conflicts are recorded for the writer's next Flush, or land in
// conflictOut — Insert's slot for its own row — when that is set) and
// the shard's delta log, which learns every stored row whose lineage a
// batch extends.
type applyHooks struct {
	seq         *atomic.Uint64
	conflict    func(entityID string, err error)
	conflictOut *error
	delta       *deltaLog
}

// reportConflict routes one apply-time value conflict.
func (h *applyHooks) reportConflict(entityID string, err error) {
	if h.conflictOut != nil {
		*h.conflictOut = err
		return
	}
	h.conflict(entityID, err)
}

// shardStore is the storage of one shard. See the file comment for the
// locking and epoch contracts.
type shardStore struct {
	storeBase
	schema Schema

	// tail holds the typed cells of rows [sealed, Rows()); segs hold rows
	// [0, sealed) in order. Only a store with a directory has segments.
	tail   []colVector
	segs   []*segment
	sealed int

	// dir is the store's segment directory, "" for a store that never
	// seals. The rest of this block is only used when dir is set.
	dir      string
	shardIdx int
	segRows  int
	useMmap  bool
	durable  bool
	// compactEvery is the segment-count compaction trigger (0 = off).
	compactEvery int
	// nextSegID names the next sealed segment file. Monotonic per shard:
	// in durable mode it is persisted in the shard checkpoint and never
	// reused, so a segment path can never be rewritten underneath a
	// checkpoint (or another process's recovery) that references it.
	nextSegID int

	closed bool
	// view is the lazily built scan view. Mutators (running under the
	// shard write lock) clear it; readers (under the read lock) rebuild it
	// on demand. Racing readers may build it twice — both views describe
	// the same data, so either may win the publish.
	view atomic.Pointer[storeView]
}

// newShardStore builds one shard's empty store. dir is the table's
// storage directory: with one, the store seals its tail into segment
// files there (cfg's SegmentRows, DisableMmap, Durable and
// CompactSegments apply); without one ("", the memory backend) it never
// seals, compacts or checkpoints.
func newShardStore(cfg StorageConfig, schema Schema, dir string, shardIdx int) (*shardStore, error) {
	s := &shardStore{storeBase: newStoreBase(), schema: schema, dir: dir, shardIdx: shardIdx}
	s.tail = newTailCols(schema, s.dict)
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk storage: %w", err)
	}
	s.segRows = cfg.SegmentRows
	if s.segRows <= 0 {
		s.segRows = defaultSegmentRows
	}
	s.useMmap = mmapAvailable && !cfg.DisableMmap
	s.durable = cfg.Durable
	s.compactEvery = resolvedCompactEvery(cfg.CompactSegments)
	return s, nil
}

func (s *shardStore) tailRows() int { return s.Rows() - s.sealed }

// ApplyBatch applies drained staging chunks under the caller's single
// write-lock acquisition — the only way rows enter a store — staying
// typed end to end. Per row: the first insertion fixes the values (new
// rows append to the tail), later mentions extend the lineage
// idempotently (a stored row whose lineage grew goes to hooks.delta), and
// a conflicting re-report goes to hooks.reportConflict but still counts.
// Returns whether the store changed; the caller bumps the epoch at most
// once per batch on true and runs Maintain afterwards.
func (s *shardStore) ApplyBatch(chunks []*obsChunk, hooks applyHooks) bool {
	changed := false
	for _, c := range chunks {
		for i := 0; i < c.n; i++ {
			id := c.ids[i]
			row, exists := s.lookup(id, c.hashes[i])
			if !exists {
				row = s.appendIdentity(id, c.hashes[i], hooks.seq.Add(1))
				tr := row - s.sealed
				for ci := range s.tail {
					appendStagedCell(&s.tail[ci], &c.cols[ci], i, tr)
				}
			}
			if s.AddLineage(row, c.srcs[i]) {
				changed = true
				// Value consistency is only checked when the observation
				// actually extended the lineage: an idempotent duplicate
				// (same source again) is not a new report.
				if exists {
					hooks.delta.touch(row)
					if err := s.checkStagedConsistent(row, c, i); err != nil {
						hooks.reportConflict(id, err)
					}
				}
			}
		}
	}
	if changed {
		s.view.Store(nil)
	}
	return changed
}

// checkStagedConsistent checks staged row srcRow of c against stored row
// row: typed against the tail, boxed only when the row lives in a sealed
// segment. Both checks give the same verdict and the same message.
func (s *shardStore) checkStagedConsistent(row int, c *obsChunk, srcRow int) error {
	if row >= s.sealed {
		return checkStagedConsistentMem(s.tail, s.schema, row-s.sealed, c, srcRow)
	}
	return checkStagedConsistentBoxed(s, s.schema, row, c, srcRow)
}

// View returns the scan-time columnar view of the store: one extent per
// sealed segment plus one for the tail. The view is immutable and valid
// only while the shard lock that produced it is held.
func (s *shardStore) View() *storeView {
	if v := s.view.Load(); v != nil {
		return v
	}
	n := s.Rows()
	tn := s.tailRows()
	v := &storeView{
		rows:    n,
		ids:     s.ids,
		seqs:    s.seqs,
		lineage: s.lineage,
		cols:    make([]colView, len(s.schema)),
	}
	for ci := range s.schema {
		exts := make([]colExtent, 0, len(s.segs)+1)
		for _, seg := range s.segs {
			exts = append(exts, seg.cols[ci])
		}
		if tn > 0 || len(exts) == 0 {
			exts = append(exts, s.tail[ci].liveExtent(s.sealed, tn))
		}
		v.cols[ci] = colView{typ: s.schema[ci].Type, exts: exts}
	}
	s.view.Store(v)
	return v
}

// Close unmaps every segment. Files are left in place (they are a cheap
// working set; removing the directory is the owner's call). The store
// must not be used afterwards. Closing twice is a no-op.
func (s *shardStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, seg := range s.segs {
		if seg.mapped {
			if err := munmapFile(seg.data); err != nil && firstErr == nil {
				firstErr = err
			}
			seg.mapped = false
		}
		seg.data = nil
		seg.cols = nil
	}
	s.segs = nil
	s.view.Store(nil)
	return firstErr
}

// value reconstructs the boxed value at (row, column); ok is false when
// the row never provided the column.
func (s *shardStore) value(row, ci int) (sqlparse.Value, bool) {
	if row >= s.sealed {
		return s.tail[ci].value(row - s.sealed)
	}
	seg := s.segmentFor(row)
	e := &seg.cols[ci]
	return e.value(s.schema[ci].Type, row-seg.base)
}

// segmentFor resolves a sealed global row to its segment.
func (s *shardStore) segmentFor(row int) *segment {
	lo, hi := 0, len(s.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.segs[mid].base+s.segs[mid].nrows <= row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.segs[lo]
}

// colVector is one shard's tail storage for one column: a typed value
// vector plus two bitmaps. defined marks rows whose insert provided the
// column at all; valid marks rows holding a non-NULL value. The
// distinction preserves the engine's historical predicate semantics:
// referencing a column a record never provided is an error, while a
// provided NULL just fails the comparison. String columns store uint32
// codes into the shard's dict (rows without a value hold dictEmptyCode so
// every cell stays a valid index).
type colVector struct {
	typ     ColumnType
	floats  []float64
	codes   []uint32
	dict    *stringDict // string columns only: the owning shard's dictionary
	bools   []bool
	defined bitmap
	valid   bitmap
}

// newTailCols builds a fresh colVector set for the schema, wiring string
// columns to dict (the shard dictionary; compaction passes a local one).
func newTailCols(schema Schema, dict *stringDict) []colVector {
	tail := make([]colVector, len(schema))
	for ci, c := range schema {
		tail[ci].typ = c.Type
		if c.Type == TypeString {
			tail[ci].dict = dict
		}
	}
	return tail
}

// value reconstructs the sqlparse.Value at row; ok is false when the row
// never provided the column.
func (c *colVector) value(row int) (v sqlparse.Value, ok bool) {
	if !c.defined.get(row) {
		return sqlparse.Value{}, false
	}
	if !c.valid.get(row) {
		return sqlparse.Null(), true
	}
	switch c.typ {
	case TypeFloat:
		return sqlparse.Number(c.floats[row]), true
	case TypeString:
		return sqlparse.StringValue(c.dict.valsView()[c.codes[row]]), true
	default:
		return sqlparse.BoolValue(c.bools[row]), true
	}
}

// liveExtent is the colExtent over a live colVector starting at global
// row base (the store's sealed row count).
func (c *colVector) liveExtent(base, n int) colExtent {
	e := colExtent{
		base:    base,
		n:       n,
		floats:  c.floats,
		codes:   c.codes,
		bools:   c.bools,
		defined: bitsView{words: c.defined.words},
		valid:   bitsView{words: c.valid.words},
	}
	if c.dict != nil {
		// Capture the code -> string table at view-build time: the dictionary
		// is append-only, so this snapshot covers every code the extent holds.
		e.dict = c.dict.valsView()
		e.sdict = c.dict
	}
	return e
}

// appendStagedCell moves one staged cell into a tail column vector.
func appendStagedCell(col *colVector, sc *stagedCol, srcRow, dstRow int) {
	switch col.typ {
	case TypeFloat:
		col.floats = append(col.floats, sc.floats[srcRow])
	case TypeString:
		col.codes = append(col.codes, sc.codes[srcRow])
	case TypeBool:
		col.bools = append(col.bools, sc.bools[srcRow])
	}
	col.defined.grow(dstRow + 1)
	col.valid.grow(dstRow + 1)
	if st := sc.state[srcRow]; st != stagedMissing {
		col.defined.set(dstRow)
		if st == stagedValue {
			col.valid.set(dstRow)
		}
	}
}

// checkStagedConsistentMem is the typed consistency check of a staged row
// against tail row row: no map or boxed-value traffic. The shard write
// lock is held.
func checkStagedConsistentMem(cols []colVector, schema Schema, row int, c *obsChunk, srcRow int) error {
	for ci := range schema {
		sc := &c.cols[ci]
		st := sc.state[srcRow]
		if st == stagedMissing {
			continue
		}
		col := &cols[ci]
		if !col.defined.get(row) {
			continue // the row never provided this column; nothing to conflict with
		}
		if !col.valid.get(row) {
			if st == stagedNull {
				continue
			}
			return stagedConflictErr(schema[ci].Name, cols, sc, ci, row, srcRow)
		}
		if st == stagedNull {
			return stagedConflictErr(schema[ci].Name, cols, sc, ci, row, srcRow)
		}
		equal := false
		switch col.typ {
		case TypeFloat:
			equal = sc.floats[srcRow] == col.floats[row]
		case TypeString:
			// Staged codes come from the same shard dictionary the tail
			// indexes, so string equality is exactly code equality.
			equal = sc.codes[srcRow] == col.codes[row]
		case TypeBool:
			equal = sc.bools[srcRow] == col.bools[row]
		}
		if !equal {
			return stagedConflictErr(schema[ci].Name, cols, sc, ci, row, srcRow)
		}
	}
	return nil
}

// checkStagedConsistentBoxed is the consistency check of a staged row
// against a row in a sealed segment, comparing boxed cells. Semantics
// match checkStagedConsistentMem exactly (a missing stored column
// conflicts with nothing; NULL only equals NULL; floats compare with ==).
func checkStagedConsistentBoxed(s *shardStore, schema Schema, row int, c *obsChunk, srcRow int) error {
	for ci := range schema {
		sc := &c.cols[ci]
		if sc.state[srcRow] == stagedMissing {
			continue
		}
		prev, ok := s.value(row, ci)
		if !ok {
			continue
		}
		v, _ := sc.value(srcRow)
		if prev != v {
			return fmt.Errorf("%w for column %q: %s vs %s (input not cleaned)", ErrConflict, schema[ci].Name, prev, v)
		}
	}
	return nil
}

// storeView is the scan-time shape of a shard: identity/lineage arrays
// shared with the store plus per-column extent lists. Scans, filter
// kernels and snapshot walks iterate it with direct slice indexing. A
// view is immutable; the underlying arrays are only valid while the
// shard lock is held.
type storeView struct {
	rows    int
	ids     []string
	seqs    []uint64
	lineage [][]int32
	cols    []colView
}

// colView is one column of a storeView: an ordered list of extents
// covering rows [0, rows), one per sealed segment plus one for the tail.
// A store that never sealed (always, for the memory backend) has exactly
// one extent, so its kernels run a single flat loop.
type colView struct {
	typ  ColumnType
	exts []colExtent
}

// colExtent is one contiguous run of column storage. Exactly one of the
// representations per type is populated: live Go slices (the tail) or
// the segment views. Strings are always
// dictionary-coded (v1 segment files are transcoded when opened). Bit i
// of defined/valid is extent-relative; base is any global row, and the
// word kernels read and write the global bitmaps through loadWord and
// orWord. A store that never sealed has one extent, at row 0. Otherwise
// only the first segment is sure to start on a word boundary: a seal
// writes the whole tail, whose length is whatever the last batch left,
// so under live ingest the tail and every later segment start at an
// arbitrary row.
type colExtent struct {
	base int // first global row covered by the extent
	n    int

	floats []float64 // both representations (disk floats are mmap-backed)

	// Dictionary-coded strings: codes[i] indexes dict. Live extents carry
	// the owning shard dictionary in sdict (its sorted view drives the
	// rank-space kernels) and a point-in-time dict snapshot covering every
	// code in the extent; segment extents leave sdict nil — their dict is
	// sorted (written so in v2, built so when a v1 file is transcoded), so
	// code order IS string order and the rank table is the identity.
	codes []uint32
	dict  []string
	sdict *stringDict

	bools     []bool // live representation
	boolBytes []byte // segment representation: one byte per row

	defined bitsView
	valid   bitsView
}

// loadWord returns bits [base+64w, base+64w+64) of the global bitmap b,
// i.e. extent-relative word w: a two-word funnel shift by base&63. Bits
// past the end of b read as zero; callers mask the extent's last word
// with tailMask.
func (e *colExtent) loadWord(b *bitmap, w int) uint64 {
	g := e.base>>6 + w
	s := uint(e.base) & 63
	x := b.words[g] >> s
	if s != 0 && g+1 < len(b.words) {
		x |= b.words[g+1] << (64 - s)
	}
	return x
}

// orWord ORs extent-relative word w, x, into the global bitmap b: the
// inverse funnel of loadWord, split across global words g and g+1. x
// must carry no bits past the extent's end.
func (e *colExtent) orWord(b *bitmap, w int, x uint64) {
	g := e.base>>6 + w
	s := uint(e.base) & 63
	b.words[g] |= x << s
	if s != 0 {
		if hi := x >> (64 - s); hi != 0 {
			b.words[g+1] |= hi
		}
	}
}

// tailMask returns the mask selecting the extent's valid bits within its
// last (possibly partial) bitmap word, ^0 when the extent ends on a word
// boundary.
func (e *colExtent) tailMask() uint64 {
	if t := uint(e.n) & 63; t != 0 {
		return (uint64(1) << t) - 1
	}
	return ^uint64(0)
}

// str returns the string cell at extent-relative row i.
func (e *colExtent) str(i int) string { return e.dict[e.codes[i]] }

// dictOrder returns the extent's dictionary in string order plus the
// code -> rank translation the string kernels compare in. A nil rank is
// the identity: segment dictionaries are written sorted, so their codes
// already ARE ranks. Live extents consult the shard dictionary's sorted
// view, which may cover codes beyond this extent's snapshot — extra
// entries only insert extra ranks, so every interval test stays exact.
func (e *colExtent) dictOrder() (rank []uint32, sortedVals []string) {
	if e.sdict != nil {
		sv := e.sdict.sortedView(len(e.dict))
		return sv.rank, sv.sortedVals
	}
	return nil, e.dict
}

// boolAt returns the bool cell at extent-relative row i.
func (e *colExtent) boolAt(i int) bool {
	if e.bools != nil {
		return e.bools[i]
	}
	return e.boolBytes[i] != 0
}

// value reconstructs the boxed value at extent-relative row i.
func (e *colExtent) value(typ ColumnType, i int) (sqlparse.Value, bool) {
	if !e.defined.get(i) {
		return sqlparse.Value{}, false
	}
	if !e.valid.get(i) {
		return sqlparse.Null(), true
	}
	switch typ {
	case TypeFloat:
		return sqlparse.Number(e.floats[i]), true
	case TypeString:
		return sqlparse.StringValue(e.str(i)), true
	default:
		return sqlparse.BoolValue(e.boolAt(i)), true
	}
}

// extentAt resolves a global row to its extent and extent-relative index.
// The single-extent case — always, for a store that never sealed — is a
// direct return; multi-extent views binary-search the (few) extents.
func (v *colView) extentAt(row int) (*colExtent, int) {
	if len(v.exts) == 1 {
		return &v.exts[0], row
	}
	lo, hi := 0, len(v.exts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.exts[mid].base+v.exts[mid].n <= row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e := &v.exts[lo]
	return e, row - e.base
}

// value reconstructs the boxed value at a global row.
func (v *colView) value(row int) (sqlparse.Value, bool) {
	e, i := v.extentAt(row)
	return e.value(v.typ, i)
}

// bitsView is a read-only packed bitset over an extent's rows (the same
// word layout as bitmap, shared with mmap'd segment sections).
type bitsView struct{ words []uint64 }

func (b bitsView) get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// storeBase is a store's row bookkeeping: identity, entity index,
// insertion sequence numbers and lineage. Lineage stays memory-resident
// even on disk — it is mutable for the row's whole
// lifetime (any later source can mention the entity), small (a handful of
// int32s per row) and needed on every insert for entity resolution, so
// it is owned here rather than paged.
type storeBase struct {
	ids     []string
	index   entityIndex
	seqs    []uint64
	lineage [][]int32
	nObs    int
	epoch   uint64

	// dict is the shard's string dictionary (see dict.go): the tail and
	// the staging path both intern into it, and staged codes stay
	// meaningful across seals and compactions.
	dict *stringDict
}

func newStoreBase() storeBase {
	return storeBase{dict: newStringDict()}
}

func (s *storeBase) Rows() int     { return len(s.ids) }
func (s *storeBase) Obs() int      { return s.nObs }
func (s *storeBase) Epoch() uint64 { return s.epoch }
func (s *storeBase) BumpEpoch()    { s.epoch++ }

func (s *storeBase) Lookup(entityID string) (int, bool) {
	return s.lookup(entityID, hashEntity(entityID))
}

// lookup is Lookup for an ID whose hashEntity h the caller carries.
func (s *storeBase) lookup(entityID string, h uint64) (int, bool) {
	return s.index.find(s.ids, entityID, h)
}

// Lineage returns the row's sorted source-ID multiset. The slice is live
// storage: callers must not mutate it and must copy it before releasing
// the shard lock.
func (s *storeBase) Lineage(row int) []int32 { return s.lineage[row] }

// Dict returns the shard's string dictionary. Unlike the rest of the
// store it IS internally synchronized (interning happens on the staging
// path, before the shard lock), and the store pointer is fixed for the
// table's lifetime, so stagers read it lock-free.
func (s *storeBase) Dict() *stringDict { return s.dict }

// appendIdentity registers a new row's identity bookkeeping and returns
// its index; the concrete store appends the column cells. h is id's
// hashEntity.
func (s *storeBase) appendIdentity(id string, h uint64, seq uint64) int {
	row := len(s.ids)
	s.ids = append(s.ids, id)
	s.index.add(s.ids, h, row)
	s.seqs = append(s.seqs, seq)
	s.lineage = append(s.lineage, nil)
	return row
}

// entityIndex maps a shard's entity IDs to their rows: an open-addressed
// table probed linearly from the ID's hashEntity. A slot holds the hash's
// high half as a tag beside row+1 (0 marks an empty slot), so a probe
// compares IDs only on a tag match, and the table is kept at most half
// full. It takes 16-32 bytes per entity against a map[string]int's ~40.
// Rows must stay below 2^32-1 per shard.
type entityIndex struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots))
}

// fibMul spreads a hash over the slots: the top bits of h*fibMul depend
// on every bit of h, including the low ones shardOf fixes for all IDs of
// a shard.
const fibMul = 0x9E3779B97F4A7C15

// find returns the row of id, whose hashEntity is h; ids holds every
// indexed row's ID.
func (x *entityIndex) find(ids []string, id string, h uint64) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	tag := h >> 32
	for i := (h * fibMul) >> x.shift; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, false
		}
		if s>>32 == tag {
			if row := int(uint32(s)) - 1; ids[row] == id {
				return row, true
			}
		}
	}
}

// add indexes row, whose ID (hashEntity h) the index does not hold yet;
// ids holds the ID of every row up to row.
func (x *entityIndex) add(ids []string, h uint64, row int) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		size := max(16, 2*len(old))
		x.slots = make([]uint64, size)
		x.shift = uint(64 - bits.TrailingZeros(uint(size)))
		for _, s := range old {
			if s != 0 {
				r := int(uint32(s)) - 1
				x.put(hashEntity(ids[r]), r)
			}
		}
	}
	x.put(h, row)
	x.n++
}

// put stores row in the first free slot of h's probe sequence.
func (x *entityIndex) put(h uint64, row int) {
	mask := uint64(len(x.slots) - 1)
	i := (h * fibMul) >> x.shift
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = h>>32<<32 | uint64(uint32(row+1))
}

// AddLineage adds a source mention to a row's sorted lineage,
// idempotently. Returns whether the store changed.
func (s *storeBase) AddLineage(row int, sid int32) bool {
	srcs := s.lineage[row]
	lo := len(srcs)
	if lo == 0 || srcs[lo-1] < sid {
		// Fast path: sources are interned in arrival order, so an entity's
		// next mention usually carries the highest ID yet — a plain append.
	} else {
		lo = 0
		hi := len(srcs)
		for lo < hi {
			mid := (lo + hi) / 2
			if srcs[mid] < sid {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(srcs) && srcs[lo] == sid {
			return false // idempotent: one source mentions an entity once
		}
	}
	if len(srcs) == cap(srcs) {
		// Lineage vectors grow in small steps; starting at 4 halves the
		// reallocations for the common handful-of-sources entity.
		grown := make([]int32, len(srcs), max(4, 2*cap(srcs)))
		copy(grown, srcs)
		srcs = grown
	}
	srcs = append(srcs, 0)
	copy(srcs[lo+1:], srcs[lo:])
	srcs[lo] = sid
	s.lineage[row] = srcs
	s.nObs++
	return true
}
