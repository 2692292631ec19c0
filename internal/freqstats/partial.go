package freqstats

import (
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"sync"
)

// idSeed seeds the row hashes AppendRow takes of entity IDs. The hashes
// only ever meet inside one process, in MergePartials' duplicate check,
// so one per-process seed serves every partial; they are never persisted
// and never enter a fingerprint or a result.
var idSeed = maphash.MakeSeed()

// Partial is one shard's contribution to a Sample: the kept rows of a
// shard scan in row (= seq) order, each carrying its lineage as an offset
// range into a shared arena. A Partial is a self-contained value — it
// holds copies of everything it references — so it can outlive the scan's
// read locks and be cached across queries. The merge path
// (MergePartials) consumes freshly scanned and cached partials
// interchangeably: merging the same set of rows yields a bitwise-identical
// Sample either way.
//
// A Partial starts mutable (AppendRow/Reset) and is sealed with Freeze,
// which fixes its content, memoizes its fingerprint, and guarantees its
// rows ascend by seq. Frozen partials are immutable and therefore safe to
// share between concurrent merges; the mutators panic on a frozen value.
// The zero value is an empty, mutable Partial.
type Partial struct {
	rows   []PartialRow
	srcBuf []int32 // arena of per-row lineage (caller-scoped source IDs)
	frozen bool
	fp     uint64 // fingerprint, memoized by Freeze
}

// PartialRow is one kept row of a Partial: the entity's global insertion
// seq, its identity and aggregate value, the hash of its ID, and the
// offset range of its lineage in the partial's arena.
type PartialRow struct {
	Seq    uint64
	ID     string
	Value  float64
	hash   uint64 // maphash of ID under idSeed, taken by AppendRow
	srcOff int32
	srcLen int32
}

// Rows returns the number of kept rows.
func (p *Partial) Rows() int { return len(p.rows) }

// Obs returns the total number of lineage cells (observations) across all
// rows.
func (p *Partial) Obs() int { return len(p.srcBuf) }

// Frozen reports whether the partial has been sealed by Freeze.
func (p *Partial) Frozen() bool { return p.frozen }

// lineage returns row r's source IDs (a view into the partial's arena).
func (p *Partial) lineage(r PartialRow) []int32 {
	return p.srcBuf[r.srcOff : r.srcOff+r.srcLen]
}

// Grow ensures capacity for at least rows additional rows and obs
// additional lineage cells, so a presized append loop never reallocates.
func (p *Partial) Grow(rows, obs int) {
	if p.frozen {
		panic("freqstats: Grow on a frozen Partial")
	}
	if need := len(p.rows) + rows; cap(p.rows) < need {
		grown := make([]PartialRow, len(p.rows), need)
		copy(grown, p.rows)
		p.rows = grown
	}
	if need := len(p.srcBuf) + obs; cap(p.srcBuf) < need {
		grown := make([]int32, len(p.srcBuf), need)
		copy(grown, p.srcBuf)
		p.srcBuf = grown
	}
}

// AppendRow appends one kept row, copying srcs into the partial's arena.
// It hashes id while the caller's scan still has it in cache, so a merge
// of this partial — once per query for a cached one — never reads the ID.
func (p *Partial) AppendRow(seq uint64, id string, value float64, srcs []int32) {
	if p.frozen {
		panic("freqstats: AppendRow on a frozen Partial")
	}
	off := int32(len(p.srcBuf))
	p.srcBuf = append(p.srcBuf, srcs...)
	p.rows = append(p.rows, PartialRow{
		Seq:    seq,
		ID:     id,
		Value:  value,
		hash:   maphash.String(idSeed, id),
		srcOff: off,
		srcLen: int32(len(srcs)),
	})
}

// Reset clears the partial for reuse, keeping the backing arrays at their
// high-water capacity. Rows are cleared so a pooled partial never retains
// entity-ID strings of a dropped table.
func (p *Partial) Reset() {
	if p.frozen {
		panic("freqstats: Reset on a frozen Partial")
	}
	clear(p.rows)
	p.rows = p.rows[:0]
	p.srcBuf = p.srcBuf[:0]
	p.fp = 0
}

// Freeze seals the partial: it sorts the rows by seq if some producer
// emitted them out of order (scans emit in row order, so this is normally
// a no-op), computes and memoizes the content fingerprint, and marks the
// partial immutable. Freeze on an already-frozen partial is a no-op.
// Freezing before publication is what makes a cached partial safe to
// share: MergePartials never needs to re-sort a frozen input, so
// concurrent merges read it without coordination.
func (p *Partial) Freeze() {
	if p.frozen {
		return
	}
	if !sortedBySeq(p.rows) {
		sort.Slice(p.rows, func(i, j int) bool { return p.rows[i].Seq < p.rows[j].Seq })
	}
	p.fp = p.fingerprint()
	p.frozen = true
}

// Fingerprint returns a 64-bit content hash covering every row (seq,
// entity, value bits, lineage) in order. Frozen partials return the memo
// computed at Freeze; mutable partials hash on every call. Like
// Sample.Fingerprint it guards caches against serving the wrong content —
// it is not a cryptographic digest.
func (p *Partial) Fingerprint() uint64 {
	if p.frozen {
		return p.fp
	}
	return p.fingerprint()
}

func (p *Partial) fingerprint() uint64 {
	h := fnvUint64(fnvOffset64, uint64(len(p.rows)))
	h = fnvUint64(h, uint64(len(p.srcBuf)))
	for _, r := range p.rows {
		h = fnvUint64(h, r.Seq)
		h = fnvString(h, r.ID)
		h = fnvUint64(h, math.Float64bits(r.Value))
		h = fnvUint64(h, uint64(r.srcLen))
		for _, sid := range p.lineage(r) {
			h = fnvUint64(h, uint64(sid))
		}
	}
	return h
}

// rowBytes is the footprint charge per PartialRow: its exact size on
// 64-bit Go (TestPartialRowBytes pins it, so the charge cannot fall
// below the struct).
const rowBytes = 48

// FootprintBytes estimates the retained heap size of the partial in
// bytes — an accounting approximation for cache byte budgets (slice
// headers and string contents charged at fixed rates), not exact
// profiling.
func (p *Partial) FootprintBytes() int {
	n := 64 // Partial struct + slice headers
	n += rowBytes * cap(p.rows)
	n += 4 * cap(p.srcBuf)
	for _, r := range p.rows {
		n += len(r.ID)
	}
	return n
}

// sortedBySeq reports whether rows ascend by Seq (seqs are globally
// unique, so non-strict ascent is enough).
func sortedBySeq(rows []PartialRow) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i].Seq < rows[i-1].Seq {
			return false
		}
	}
	return true
}

// MergePartials folds per-shard partials into one Sample in global
// insertion (seq) order. Every kept row carries its lineage, so the
// sample's per-entity attribution — and with it the per-source sizes n_j —
// is exact for any predicate. names maps the partials' source IDs to
// source names; cached (frozen) and freshly scanned partials mix freely,
// and the output is bitwise-identical to merging the same rows from any
// mix.
//
// Every merged row must be a first sighting of its entity: producers keep
// one row per entity and an entity lives in one partial. The merge checks
// that guarantee with the row hashes AppendRow took, comparing IDs only on
// equal hashes, and fails on a violation. It never hashes an ID itself and
// touches no Go map per row: the sample's ID index is left to be built on
// first use (see Sample.ids).
func MergePartials(names []string, parts []*Partial) (*Sample, error) {
	totalRows, totalObs := 0, 0
	active := make([]*Partial, 0, len(parts))
	for _, p := range parts {
		if p == nil || len(p.rows) == 0 {
			continue
		}
		active = append(active, p)
		totalRows += len(p.rows)
		totalObs += len(p.srcBuf)
	}
	s := &Sample{
		order:     make([]string, 0, totalRows),
		ents:      make([]entityStat, 0, totalRows),
		srcIDs:    make(map[string]int32, len(names)),
		srcNames:  make([]string, 0, len(names)),
		srcTotals: make([]int, 0, len(names)),
		srcArena:  make([]srcCount, 0, totalObs),
		indexMu:   new(sync.Mutex),
	}
	s.indexPending.Store(true)
	// trans lazily maps the caller's source IDs to sample-local ones, so
	// the sample only interns sources that actually contributed kept
	// observations.
	trans := newSourceTrans(len(names))
	seen := newRowSet(totalRows)
	var fcount []int // fcount[j] = f_j, copied into s.fstat at the end
	// Each partial's rows already ascend by seq: frozen partials guarantee
	// it (Freeze sorts), and fresh scans emit rows in row order with seqs
	// drawn under the shard write lock. Global insertion order is
	// therefore a k-way merge over the per-partial heads — no materialized
	// union, no reflect-driven sort. The guard keeps a future producer
	// that reorders rows correct rather than subtly unordered; it never
	// touches frozen partials, which may be shared by concurrent merges.
	for _, p := range active {
		if !p.frozen && !sortedBySeq(p.rows) {
			sort.Slice(p.rows, func(i, j int) bool { return p.rows[i].Seq < p.rows[j].Seq })
		}
	}
	// seqs[pi] caches the seq of partial pi's head row, so picking the
	// next row scans one flat array.
	heads := make([]int, len(active))
	seqs := make([]uint64, len(active))
	for pi, p := range active {
		seqs[pi] = p.rows[0].Seq
	}
	for len(active) > 0 {
		best, bestSeq := 0, seqs[0]
		for pi := 1; pi < len(seqs); pi++ {
			if sq := seqs[pi]; sq < bestSeq {
				best, bestSeq = pi, sq
			}
		}
		p := active[best]
		r := p.rows[heads[best]]
		lineage := p.lineage(r)
		es := entityStat{value: r.Value, count: len(lineage), srcs: s.allocVec(len(lineage))}
		for _, sid := range lineage {
			if int(sid) < 0 || int(sid) >= len(trans) {
				return nil, fmt.Errorf("freqstats: partial lineage ID %d outside source table (len %d)", sid, len(names))
			}
			local := trans[sid]
			if local < 0 {
				local = s.InternSource(names[sid])
				trans[sid] = local
			}
			es.srcs = addToVec(es.srcs, local, 1)
			s.srcTotals[local]++
		}
		if r.ID == "" {
			return nil, fmt.Errorf("freqstats: observation with empty entity ID")
		}
		if len(lineage) == 0 {
			return nil, fmt.Errorf("freqstats: entity %q added with no source observations", r.ID)
		}
		if !seen.add(r.hash, r.ID, s.order) {
			return nil, fmt.Errorf("freqstats: AddNewEntityObservations called twice for entity %q", r.ID)
		}
		s.order = append(s.order, r.ID)
		s.ents = append(s.ents, es)
		s.n += es.count
		for len(fcount) <= es.count {
			fcount = append(fcount, 0)
		}
		fcount[es.count]++
		if heads[best]++; heads[best] == len(p.rows) {
			last := len(active) - 1
			active[best], heads[best], seqs[best] = active[last], heads[last], seqs[last]
			active, seqs = active[:last], seqs[:last]
		} else {
			seqs[best] = p.rows[heads[best]].Seq
		}
	}
	s.fstat = make(map[int]int, len(fcount))
	for j, f := range fcount {
		if f > 0 {
			s.fstat[j] = f
		}
	}
	return s, nil
}

// rowSet is MergePartials' duplicate check: an open-addressing table
// (linear probing, at most half full) over the row hashes of the entities
// merged so far. Two rows collide only on equal 64-bit hashes, and only
// then are their IDs compared, so the check is exact while a merge of
// distinct IDs reads no ID string.
type rowSet struct {
	slots  []int32  // 0 = empty, else 1 + the entity's merged position
	hashes []uint64 // row hash of each merged entity, by position
	mask   uint64
}

// newRowSet returns an empty rowSet sized for n rows.
func newRowSet(n int) rowSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return rowSet{slots: make([]int32, size), hashes: make([]uint64, 0, n), mask: uint64(size - 1)}
}

// add records the entity about to take merged position len(order), with
// row hash h and ID id, and reports whether id was new. order holds the
// IDs of the entities already merged.
func (t *rowSet) add(h uint64, id string, order []string) bool {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		at := t.slots[i]
		if at == 0 {
			t.hashes = append(t.hashes, h)
			t.slots[i] = int32(len(t.hashes))
			return true
		}
		if t.hashes[at-1] == h && order[at-1] == id {
			return false
		}
	}
}
