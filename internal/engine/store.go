package engine

// Pluggable shard storage. A table's shards used to BE the storage — a
// concrete struct of typed column vectors, defined/valid bitmaps and
// per-row lineage arrays. That representation is now behind the
// ShardStore interface, with two implementations:
//
//   - memStore (store_mem.go): the original in-memory columnar layout,
//     the zero-regression default.
//   - diskStore (store_disk.go): sealed, page-formatted column segments
//     on disk served through mmap (plain ReadAt fallback where mmap is
//     unavailable or disabled), with an in-memory columnar tail for rows
//     not yet sealed.
//
// The seam is deliberately narrow and scan-shaped: query kernels never
// call per-row interface methods. A scan asks the store once for a
// storeView — typed column extents plus the identity/lineage arrays —
// and iterates slices, so the in-memory fast path compiles to the same
// direct indexing as before the extraction.
//
// Locking contract: a ShardStore is NOT internally synchronized. The
// owning shard's RWMutex serializes access exactly as it always did —
// mutators (ApplyBatch, BumpEpoch, Maintain) run under the shard write
// lock, readers (View, Value, Lookup, ...) under at least the read lock,
// and a storeView is only valid while the lock that produced it is held.
//
// Epoch contract: the store carries the shard's write epoch but never
// advances it by itself. Callers bump it exactly once per applied batch
// that changed the store (the one-bump-per-batch contract ApplyBatch
// reports `changed` for) — which is what keeps the partial and
// whole-result caches exact (see cache.go) and the delta log complete
// (delta.go).

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Backend selects a shard-storage implementation.
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

// applyHooks carries the table-side state ShardStore.ApplyBatch needs
// without exposing the Table: the schema, the table's global sequence
// counter (a new row takes seq.Add(1)), conflict reporting (apply-time
// value conflicts are recorded for the writer's next Flush, or land in
// conflictOut — Insert's slot for its own row — when that is set) and
// the shard's delta log, which learns every stored row whose lineage a
// batch extends.
type applyHooks struct {
	schema      Schema
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

// ShardStore is the storage representation of one shard: the typed column
// vectors, defined/valid bitmaps, per-row identity/sequence arrays and
// per-row lineage (source-ID multisets) that every scan, ingest and
// snapshot path runs against. See the package comment above for the
// locking and epoch contracts.
type ShardStore interface {
	// Rows returns the number of applied rows (staged rows are not part
	// of the store).
	Rows() int
	// Obs returns the observation count sum(len(lineage)).
	Obs() int
	// Epoch returns the shard write epoch; BumpEpoch advances it (callers
	// bump exactly once per visible mutation — see the epoch contract).
	Epoch() uint64
	BumpEpoch()

	// Lookup resolves an entity ID to its row.
	Lookup(entityID string) (row int, ok bool)
	// EntityID, Seq and Lineage read one row's identity, global insertion
	// sequence number and sorted source-ID multiset. The returned lineage
	// slice is live storage — callers must not mutate it and must copy it
	// before releasing the shard lock.
	EntityID(row int) string
	Seq(row int) uint64
	Lineage(row int) []int32

	// ApplyBatch applies drained staging chunks under the caller's single
	// write-lock acquisition — the only way rows enter a store. Per row:
	// the first insertion fixes the values, later mentions extend the
	// lineage idempotently (a stored row whose lineage grew goes to
	// hooks.delta), and a conflicting re-report goes to
	// hooks.reportConflict but still counts. Returns whether the store
	// changed; the caller bumps the epoch at most once per batch on true.
	ApplyBatch(chunks []*obsChunk, hooks applyHooks) (changed bool)

	// Maintain runs post-mutation housekeeping (the disk backend seals
	// full tails into segments here). Logical content never changes; a
	// failure leaves the store fully usable, just less disk-resident.
	Maintain() error

	// View returns the scan-time columnar view of the store. The view is
	// immutable and valid only while the shard lock that produced it is
	// held.
	View() *storeView

	// Dict returns the shard's string dictionary — the append-only intern
	// table every string column of the store codes into. Unlike the rest
	// of the store it IS internally synchronized (interning happens on the
	// staging path, before the shard lock), and the store pointer is
	// immutable for the table's lifetime, so stagers read it lock-free.
	Dict() *stringDict

	// Backend identifies the implementation (for stats and tooling).
	Backend() Backend

	// Close releases backend resources (mappings, files). The store must
	// not be used afterwards. Closing twice is a no-op.
	Close() error
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
// covering rows [0, rows). The in-memory backend always produces exactly
// one extent (the live vectors), so its kernels run the same single flat
// loop as before the extraction; the disk backend produces one extent per
// sealed segment plus one for the in-memory tail.
type colView struct {
	typ  ColumnType
	exts []colExtent
}

// colExtent is one contiguous run of column storage. Exactly one of the
// representations per type is populated: live Go slices (memory backend
// and the disk tail), the dictionary-coded views (live string vectors and
// v2 segments), or the v1 offset+blob string view retained for old
// segment files. Bit i of defined/valid is extent-relative.
type colExtent struct {
	base int // first global row covered by the extent
	n    int

	floats []float64 // both representations (disk floats are mmap-backed)

	// Dictionary-coded strings: codes[i] indexes dict. Live extents carry
	// the owning shard dictionary in sdict (its sorted view drives the
	// rank-space kernels) and a point-in-time dict snapshot covering every
	// code in the extent; v2 segment extents leave sdict nil — their dict
	// is written sorted, so code order IS string order and the rank table
	// is the identity.
	codes []uint32
	dict  []string
	sdict *stringDict

	strOff  []uint32 // v1 segment representation: n+1 offsets into strBlob
	strBlob []byte

	bools     []bool // live representation
	boolBytes []byte // segment representation: one byte per row

	defined bitsView
	valid   bitsView
}

// wordAligned reports whether the extent starts on a 64-row bitmap word
// boundary — the precondition for the word-at-a-time scan kernels, which
// overlay the extent's defined/valid words directly onto the global
// selection bitmap's words. The memory backend's single extent (base 0)
// is always aligned. On disk only the first segment is sure to be: a seal
// writes the whole tail, whose length is whatever the last batch left,
// so under live ingest the tail and every later segment start at an
// arbitrary row (a freshly compacted shard is one aligned segment plus
// the tail). Unaligned extents take the per-row scalar fallbacks.
func (e *colExtent) wordAligned() bool { return e.base&63 == 0 }

// tailMask returns the mask selecting the extent's valid bits within its
// last (possibly partial) bitmap word, ^0 when the extent ends on a word
// boundary.
func (e *colExtent) tailMask() uint64 {
	if t := uint(e.n) & 63; t != 0 {
		return (uint64(1) << t) - 1
	}
	return ^uint64(0)
}

// str returns the string cell at extent-relative row i. Dictionary-coded
// extents index the materialized code table; v1 segment strings are
// materialized from the blob on access (string predicates and group keys
// are off the hot float path).
func (e *colExtent) str(i int) string {
	if e.codes != nil {
		return e.dict[e.codes[i]]
	}
	return string(e.strBlob[e.strOff[i]:e.strOff[i+1]])
}

// dictOrder returns the extent's dictionary in string order plus the
// code -> rank translation the string kernels compare in. A nil rank is
// the identity: segment dictionaries are written sorted, so their codes
// already ARE ranks. Live extents consult the shard dictionary's sorted
// view, which may cover codes beyond this extent's snapshot — extra
// entries only insert extra ranks, so every interval test stays exact.
// Only meaningful when e.codes != nil.
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
// The single-extent case — always, for the memory backend — is a direct
// return; multi-extent views binary-search the (few) extents.
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

// storeBase is the bookkeeping shared by both backends: row identity,
// entity index, insertion sequence numbers and lineage. Lineage stays
// memory-resident in every backend — it is mutable for the row's whole
// lifetime (any later source can mention the entity), small (a handful of
// int32s per row) and needed on every insert for entity resolution, so
// it is owned here rather than paged.
type storeBase struct {
	ids     []string
	index   map[string]int
	seqs    []uint64
	lineage [][]int32
	nObs    int
	epoch   uint64

	// dict is the shard's string dictionary (see dict.go). Owned here so
	// both backends share one per shard: the memStore column vectors, the
	// disk tail and the staging path all intern into it, and staged codes
	// stay meaningful across seals and compactions.
	dict *stringDict
}

func newStoreBase() storeBase {
	return storeBase{index: make(map[string]int), dict: newStringDict()}
}

func (s *storeBase) Rows() int     { return len(s.ids) }
func (s *storeBase) Obs() int      { return s.nObs }
func (s *storeBase) Epoch() uint64 { return s.epoch }
func (s *storeBase) BumpEpoch()    { s.epoch++ }

func (s *storeBase) Lookup(entityID string) (int, bool) {
	row, ok := s.index[entityID]
	return row, ok
}

func (s *storeBase) EntityID(row int) string { return s.ids[row] }
func (s *storeBase) Seq(row int) uint64      { return s.seqs[row] }
func (s *storeBase) Lineage(row int) []int32 { return s.lineage[row] }
func (s *storeBase) Dict() *stringDict       { return s.dict }

// appendIdentity registers a new row's identity bookkeeping and returns
// its index; the concrete store appends the column cells.
func (s *storeBase) appendIdentity(id string, seq uint64) int {
	row := len(s.ids)
	s.ids = append(s.ids, id)
	s.index[id] = row
	s.seqs = append(s.seqs, seq)
	s.lineage = append(s.lineage, nil)
	return row
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

// newShardStore builds one shard's store for a resolved configuration.
// dir is the table's storage directory (disk backend only).
func newShardStore(cfg StorageConfig, schema Schema, dir string, shardIdx int) (ShardStore, error) {
	switch cfg.Backend {
	case BackendMemory:
		return newMemStore(schema), nil
	case BackendDisk:
		return newDiskStore(cfg, schema, dir, shardIdx)
	default:
		return nil, fmt.Errorf("engine: unresolved storage backend %v", cfg.Backend)
	}
}
