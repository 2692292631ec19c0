package engine

import (
	"sync/atomic"

	"repro/internal/sqlparse"
)

// memStore is the in-memory columnar ShardStore — the table's original
// storage representation, unchanged in layout: one typed vector plus
// defined/valid bitmaps per column, parallel to the identity/lineage
// arrays in storeBase. It is the default backend and the zero-regression
// baseline the disk backend is proven against.
type memStore struct {
	storeBase
	cols []colVector

	// view is the lazily built scan view. Mutators (running under the
	// shard write lock) clear it; readers (under the read lock) rebuild it
	// on demand. Racing readers may build it twice — both views describe
	// the same data, so either may win the publish.
	view atomic.Pointer[storeView]
}

func newMemStore(schema Schema) *memStore {
	m := &memStore{storeBase: newStoreBase(), cols: make([]colVector, len(schema))}
	for ci, c := range schema {
		m.cols[ci].typ = c.Type
		if c.Type == TypeString {
			m.cols[ci].dict = m.dict
		}
	}
	return m
}

// colVector is one shard's storage for one column: a typed value vector
// plus two bitmaps. defined marks rows whose insert provided the column at
// all; valid marks rows holding a non-NULL value. The distinction preserves
// the engine's historical predicate semantics: referencing a column a
// record never provided is an error, while a provided NULL just fails the
// comparison. String columns store uint32 codes into the shard's dict
// (rows without a value hold dictEmptyCode so every cell stays a valid
// index). Also reused as the disk backend's in-memory tail.
type colVector struct {
	typ     ColumnType
	floats  []float64
	codes   []uint32
	dict    *stringDict // string columns only: the owning shard's dictionary
	bools   []bool
	defined bitmap
	valid   bitmap
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
// row base (base 0 for memStore; the sealed-row offset for the disk
// tail).
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

// ApplyBatch applies drained staging chunks row by row, staying typed end
// to end (no boxed values on the apply path). The caller holds the shard
// write lock and bumps the epoch once iff the batch changed the store.
func (m *memStore) ApplyBatch(chunks []*obsChunk, hooks applyHooks) bool {
	changed := false
	for _, c := range chunks {
		for i := 0; i < c.n; i++ {
			id := c.ids[i]
			row, exists := m.lookup(id, c.hashes[i])
			if !exists {
				row = m.appendIdentity(id, c.hashes[i], hooks.seq.Add(1))
				for ci := range m.cols {
					appendStagedCell(&m.cols[ci], &c.cols[ci], i, row)
				}
			}
			if m.AddLineage(row, c.srcs[i]) {
				changed = true
				// Value consistency is only checked when the observation
				// actually extended the lineage: an idempotent duplicate
				// (same source again) is not a new report.
				if exists {
					hooks.delta.touch(row)
					if err := checkStagedConsistentMem(m.cols, hooks.schema, row, c, i); err != nil {
						hooks.reportConflict(id, err)
					}
				}
			}
		}
	}
	if changed {
		m.view.Store(nil)
	}
	return changed
}

func (m *memStore) Maintain() error { return nil }

func (m *memStore) View() *storeView {
	if v := m.view.Load(); v != nil {
		return v
	}
	n := m.Rows()
	v := &storeView{
		rows:    n,
		ids:     m.ids,
		seqs:    m.seqs,
		lineage: m.lineage,
		cols:    make([]colView, len(m.cols)),
	}
	for ci := range m.cols {
		c := &m.cols[ci]
		v.cols[ci] = colView{typ: c.typ, exts: []colExtent{c.liveExtent(0, n)}}
	}
	m.view.Store(v)
	return v
}

func (m *memStore) Backend() Backend { return BackendMemory }

func (m *memStore) Close() error { return nil }

// appendStagedCell moves one staged cell into a live column vector.
// Shared with the disk backend's tail.
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
// against live column vectors: no map or boxed-value traffic. The shard
// write lock is held.
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
			// Staged codes come from the same shard dictionary the live
			// column indexes, so string equality is exactly code equality.
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
