package engine

// Ingestion. Every write reaches a shard's store through one path:
// per-shard staging buffers drained in batches.
//
//	writers ──Append/AppendRow/Writer──▶ per-shard staging ──drain──▶ columnar shard
//	Insert ──one-row chunk──────────────────────────────────▶ drain (applied last)
//
//   - Staging. Observations are validated against the schema up front
//     (synchronously, so the writer still gets immediate feedback for
//     malformed rows) and appended to the target shard's staging buffer —
//     a list of typed columnar chunks guarded by a small staging mutex
//     that is never held during shard scans, so staging a row cannot
//     block a reader and a reader cannot block a writer. Chunks mirror
//     the shard's column layout (typed vectors, not boxed values), so
//     staging a row is a handful of typed appends.
//   - Draining. A drain swaps a shard's staged chunk list out under the
//     staging mutex and applies it to the columnar shard under ONE
//     write-lock acquisition, bumping the shard's write epoch once per
//     applied batch instead of once per row (see cache.go for why epochs
//     matter). Drains of one shard are serialized (stagingBuf.applyMu), so
//     rows apply in exactly the order they were staged.
//   - Insert. The synchronous write stages its row into a private one-row
//     chunk and drains its own shard with that chunk appended after the
//     swapped-out staging, so it applies (and, on a durable table, is
//     logged) after every row staged before it and before any row staged
//     later. Its own conflict comes back as its error; the drain is
//     otherwise an ordinary batch.
//   - Appliers. Table.StartIngest starts a bounded set of background
//     applier goroutines that drain shards whose staging crossed the batch
//     threshold, plus an optional periodic drain. Without an Ingester the
//     staging path drains inline once a shard's staging reaches the batch
//     threshold, so the batched API also works fully synchronously.
//
// Visibility semantics: queries never read staging — a query observes the
// applied rows under the scan's read locks, a consistent point-in-time
// cut exactly as before. Table.Flush is the barrier: when it returns,
// every row staged before the call is applied, giving the flushing
// goroutine read-your-writes for its subsequent queries (WithFlushOnQuery
// turns this into an automatic per-query barrier). An Insert is a
// barrier for its own shard.
//
// Error semantics: schema violations (unknown column, type mismatch) are
// reported synchronously for every row before it is staged (an async
// pipeline must reject malformed rows while the producer still has
// context). Value conflicts (an entity re-reported with different values)
// can only be detected at apply time; the conflicting observation still
// extends the lineage, the first value in apply order is kept, and the
// error is recorded and surfaced by the next Flush (or Ingester.Close) —
// except for Insert's own row, whose conflict Insert returns.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlparse"
)

// defaultBatchRows is the per-shard staging threshold at which a drain is
// scheduled (Ingester) or performed inline (no Ingester).
const defaultBatchRows = 256

// stagePressureFactor bounds staging memory: when a shard's staging holds
// more than stagePressureFactor*batch rows (appliers behind), the stager
// drains inline, which both bounds memory and applies backpressure.
const stagePressureFactor = 4

// maxIngestErrors bounds the recorded apply-error list; beyond it only a
// count is kept.
const maxIngestErrors = 32

// Staged cell states (stagedCol.state), preserving colVector's
// defined/valid distinction through the staging hop.
const (
	stagedMissing byte = iota // column not provided by the append
	stagedNull                // provided as NULL
	stagedValue               // provided with a typed value
)

// stagedCol is one column of a staged chunk, mirroring colVector: a typed
// value vector (only the schema type's vector is used; cells without a
// value hold the zero placeholder to stay row-aligned) plus a per-row
// state byte. Staying typed end to end keeps staging free of boxed
// sqlparse.Value copies and lets the apply side compare and append
// without interface or map traffic. String cells carry BOTH the caller's
// string (the WAL writes strings, keeping the log format independent of
// dictionary state) and its code in the target shard's dictionary,
// interned at stage time so the apply side is a plain uint32 append.
// Vectors are pre-sized to the fixed chunk capacity, so staging a cell is
// an indexed write with no append bookkeeping.
type stagedCol struct {
	typ    ColumnType
	floats []float64
	strs   []string
	codes  []uint32
	bools  []bool
	state  []byte
}

// setCell stages one cell at row n. v is only read when provided; the
// caller has already type-checked it (kind matches or NULL). dict is the
// target shard's dictionary (string columns only; may be nil otherwise).
func (sc *stagedCol) setCell(n int, v sqlparse.Value, provided bool, dict *stringDict) {
	st := stagedValue
	if !provided {
		st = stagedMissing
	} else if v.Kind == sqlparse.ValueNull {
		st = stagedNull
	}
	sc.state[n] = st
	switch sc.typ {
	case TypeFloat:
		var x float64
		if st == stagedValue {
			x = v.Num
		}
		sc.floats[n] = x
	case TypeString:
		var x string
		code := dictEmptyCode
		if st == stagedValue {
			x = v.Str
			code = dict.intern(x)
		}
		sc.strs[n] = x
		sc.codes[n] = code
	case TypeBool:
		var x bool
		if st == stagedValue {
			x = v.Bool
		}
		sc.bools[n] = x
	}
}

// value reconstructs the staged cell as a sqlparse.Value (error paths
// only).
func (sc *stagedCol) value(row int) (v sqlparse.Value, provided bool) {
	switch sc.state[row] {
	case stagedMissing:
		return sqlparse.Value{}, false
	case stagedNull:
		return sqlparse.Null(), true
	}
	switch sc.typ {
	case TypeFloat:
		return sqlparse.Number(sc.floats[row]), true
	case TypeString:
		return sqlparse.StringValue(sc.strs[row]), true
	default:
		return sqlparse.BoolValue(sc.bools[row]), true
	}
}

// obsChunk is one block of staged observations in the shard's columnar
// shape, with fixed capacity defaultBatchRows (only the first n rows are
// valid). Chunks are handed from writers to shard staging wholesale and
// recycled through a process-wide pool after application. hashes[i] is
// ids[i]'s hashEntity, taken when the row was routed to its shard and
// reused by the store's entity-index probe.
type obsChunk struct {
	n      int
	ids    []string
	hashes []uint64
	srcs   []int32
	cols   []stagedCol
}

func (c *obsChunk) rows() int { return c.n }

// matches reports whether the chunk's column layout fits the schema.
func (c *obsChunk) matches(schema Schema) bool {
	if len(c.cols) != len(schema) || len(c.ids) != defaultBatchRows {
		return false
	}
	for i := range schema {
		if c.cols[i].typ != schema[i].Type {
			return false
		}
	}
	return true
}

func (c *obsChunk) init(schema Schema) {
	c.n = 0
	c.ids = make([]string, defaultBatchRows)
	c.hashes = make([]uint64, defaultBatchRows)
	c.srcs = make([]int32, defaultBatchRows)
	c.cols = make([]stagedCol, len(schema))
	for i := range schema {
		sc := &c.cols[i]
		sc.typ = schema[i].Type
		sc.state = make([]byte, defaultBatchRows)
		switch sc.typ {
		case TypeFloat:
			sc.floats = make([]float64, defaultBatchRows)
		case TypeString:
			sc.strs = make([]string, defaultBatchRows)
			sc.codes = make([]uint32, defaultBatchRows)
		case TypeBool:
			sc.bools = make([]bool, defaultBatchRows)
		}
	}
}

// reset empties the chunk, dropping string references so staged text
// does not outlive its batch in the pool.
func (c *obsChunk) reset() {
	clear(c.ids[:c.n])
	for i := range c.cols {
		if c.cols[i].typ == TypeString {
			clear(c.cols[i].strs[:c.n])
		}
	}
	c.n = 0
}

// rowCells is one row to stage, in one of two shapes: positional (vals
// holds one value per schema column, and provided flags the cells the row
// carries, nil meaning all of them) or named (attrs, keyed by column
// name, every key a column).
type rowCells struct {
	named    bool
	vals     []sqlparse.Value
	provided []bool
	attrs    map[string]sqlparse.Value
}

// cell returns the row's value for column ci and whether the row carries
// it.
func (r *rowCells) cell(schema Schema, ci int) (sqlparse.Value, bool) {
	if r.named {
		v, ok := r.attrs[schema[ci].Name]
		return v, ok
	}
	return r.vals[ci], r.provided == nil || r.provided[ci]
}

// stageRow validates and stages one row in a single typed pass — the
// staging step of every write (Append, AppendRow, Insert and the Writer's
// appends). A provided cell must be NULL or of its column's type; the
// first that is not is the error, and a named row with a key that is no
// column fails after that. Nothing is staged on error: cells are written
// at row index n, which is only committed (n++) after the whole row
// validated (a string interned before a later column fails stays in the
// dictionary, harmlessly). h is id's hashEntity; dict is the target
// shard's dictionary.
func (c *obsChunk) stageRow(schema Schema, id string, h uint64, src int32, row *rowCells, dict *stringDict) error {
	n := c.n
	carried := 0
	for ci := range c.cols {
		sc := &c.cols[ci]
		v, ok := row.cell(schema, ci)
		if !ok {
			sc.setCell(n, v, false, dict)
			continue
		}
		carried++
		st := stagedValue
		switch sc.typ {
		case TypeFloat:
			var x float64
			switch v.Kind {
			case sqlparse.ValueNumber:
				x = v.Num
			case sqlparse.ValueNull:
				st = stagedNull
			default:
				return typeErr(schema[ci], v)
			}
			sc.floats[n] = x
		case TypeString:
			var x string
			code := dictEmptyCode
			switch v.Kind {
			case sqlparse.ValueString:
				x = v.Str
				code = dict.intern(x)
			case sqlparse.ValueNull:
				st = stagedNull
			default:
				return typeErr(schema[ci], v)
			}
			sc.strs[n] = x
			sc.codes[n] = code
		case TypeBool:
			var x bool
			switch v.Kind {
			case sqlparse.ValueBool:
				x = v.Bool
			case sqlparse.ValueNull:
				st = stagedNull
			default:
				return typeErr(schema[ci], v)
			}
			sc.bools[n] = x
		}
		sc.state[n] = st
	}
	if row.named && carried != len(row.attrs) {
		return unknownAttr(schema, row.attrs)
	}
	c.ids[n] = id
	c.hashes[n] = h
	c.srcs[n] = src
	c.n = n + 1
	return nil
}

func typeErr(c Column, v sqlparse.Value) error {
	return invalidRowf("column %q expects %s, got %s", c.Name, c.Type, v)
}

// unknownAttr returns the unknown-column error naming the smallest attrs
// key that is no column of the schema, so the message does not depend on
// map iteration order.
func unknownAttr(schema Schema, attrs map[string]sqlparse.Value) error {
	var unknown []string
	for name := range attrs {
		if !slices.ContainsFunc(schema, func(c Column) bool { return c.Name == name }) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	return fmt.Errorf("%w %q", ErrUnknownColumn, slices.Min(unknown))
}

// stagingBuf is one shard's staging area. mu guards the chunk list and is
// held only for pointer-sized appends and swaps; applyMu serializes
// drains so batches apply in staging order (FIFO per shard) and a Flush
// caller waits for in-flight applier batches of the shard.
type stagingBuf struct {
	mu     sync.Mutex
	chunks []*obsChunk
	rows   int
	// walPending holds the WAL record seqs (ascending) covering the
	// currently staged rows; applying holds the seqs of the batch an
	// in-flight drain is applying right now. Durable mode only — both
	// keep the checkpoint watermark from releasing WAL records whose rows
	// are not applied yet (see Table.walSafeApplied).
	walPending []uint64
	applying   []uint64

	applyMu sync.Mutex
}

// chunkPool recycles staged chunks process-wide once their batch is
// applied, so steady-state streaming allocates no staging memory. Shared
// across tables; a chunk is re-initialized when it crosses to a table
// with a different column layout.
var chunkPool = sync.Pool{New: func() any { return &obsChunk{} }}

// ingestState is the table-level half of the subsystem: the active
// Ingester (if any), configuration, recorded apply errors, and counters.
type ingestState struct {
	ing       atomic.Pointer[Ingester]
	batchRows atomic.Int64 // 0 = defaultBatchRows

	errMu   sync.Mutex
	errs    []error
	errDrop int

	staged       atomic.Int64 // rows currently staged across shards
	batches      atomic.Uint64
	appliedRows  atomic.Uint64
	flushes      atomic.Uint64
	inlineDrains atomic.Uint64
}

// IngestStats is a point-in-time snapshot of the batched-ingestion
// counters of one table.
type IngestStats struct {
	// StagedRows is the number of rows currently staged (not yet applied,
	// hence not yet visible to queries). Writer-local chunks that have not
	// been handed to a shard are not counted.
	StagedRows int
	// Batches and AppliedRows count applied drain batches and the rows
	// they carried; each batch bumped its shard's epoch at most once.
	Batches, AppliedRows uint64
	// Flushes counts Table.Flush barriers; InlineDrains counts drains the
	// staging path ran itself (threshold reached with no Ingester, or
	// backpressure).
	Flushes, InlineDrains uint64
	// PendingErrors is the number of recorded apply errors awaiting the
	// next Flush.
	PendingErrors int
}

// IngestStats snapshots the table's batched-ingestion counters.
func (t *Table) IngestStats() IngestStats {
	st := &t.ingest
	st.errMu.Lock()
	pending := len(st.errs) + st.errDrop
	st.errMu.Unlock()
	return IngestStats{
		StagedRows:    int(st.staged.Load()),
		Batches:       st.batches.Load(),
		AppliedRows:   st.appliedRows.Load(),
		Flushes:       st.flushes.Load(),
		InlineDrains:  st.inlineDrains.Load(),
		PendingErrors: pending,
	}
}

// StagedRows returns the number of staged-but-unapplied rows.
func (t *Table) StagedRows() int { return int(t.ingest.staged.Load()) }

func (t *Table) batchRowsValue() int {
	if n := t.ingest.batchRows.Load(); n > 0 {
		return int(n)
	}
	return defaultBatchRows
}

func (t *Table) borrowChunk() *obsChunk {
	c := chunkPool.Get().(*obsChunk)
	if !c.matches(t.schema) {
		c.init(t.schema)
	}
	return c
}

func (t *Table) recycleChunk(c *obsChunk) {
	c.reset()
	chunkPool.Put(c)
}

// recordIngestErr stores an apply-time error for the next Flush.
func (t *Table) recordIngestErr(err error) {
	st := &t.ingest
	st.errMu.Lock()
	if len(st.errs) < maxIngestErrors {
		st.errs = append(st.errs, err)
	} else {
		st.errDrop++
	}
	st.errMu.Unlock()
}

// takeIngestErrors returns (and clears) the recorded apply errors.
func (t *Table) takeIngestErrors() error {
	st := &t.ingest
	st.errMu.Lock()
	errs := st.errs
	drop := st.errDrop
	st.errs = nil
	st.errDrop = 0
	st.errMu.Unlock()
	if drop > 0 {
		errs = append(errs, droppedIngestErrors{table: t.name, n: drop})
	}
	return errors.Join(errs...)
}

// droppedIngestErrors summarizes apply errors beyond the maxIngestErrors
// cap. It is a typed error so accounting callers (countConflicts in
// loader.go) can recover the exact count instead of counting the summary
// as one.
type droppedIngestErrors struct {
	table string
	n     int
}

func (d droppedIngestErrors) Error() string {
	return fmt.Sprintf("engine: %s: %d further ingest errors dropped", d.table, d.n)
}

// checkRow validates what every staging call (named call in errors)
// checks before staging: a non-empty entity ID and source, and a
// positional row's length.
func (t *Table) checkRow(call, entityID, source string, row *rowCells) error {
	if entityID == "" {
		return invalidRowf("engine: %s: empty entity ID", t.name)
	}
	if source == "" {
		return invalidRowf("engine: %s: empty source", t.name)
	}
	if row.named {
		return nil
	}
	if len(row.vals) != len(t.schema) {
		return fmt.Errorf("engine: %s: %s got %d values for %d columns", t.name, call, len(row.vals), len(t.schema))
	}
	if row.provided != nil && len(row.provided) != len(t.schema) {
		return fmt.Errorf("engine: %s: %s got %d provided flags for %d columns", t.name, call, len(row.provided), len(t.schema))
	}
	return nil
}

// openChunk returns the shard staging's current open chunk, starting a
// fresh one when the last chunk is full. Caller holds st.mu; the lock is
// dropped around the pool round (chunk churn is once per
// defaultBatchRows rows).
func (t *Table) openChunk(st *stagingBuf) *obsChunk {
	if n := len(st.chunks); n > 0 && st.chunks[n-1].rows() < defaultBatchRows {
		return st.chunks[n-1]
	}
	st.mu.Unlock()
	c := t.borrowChunk()
	st.mu.Lock()
	st.chunks = append(st.chunks, c)
	return c
}

// Append stages one observation for batched application, the asynchronous
// analogue of Insert: source reported the entity with the given attribute
// values. Validation runs synchronously; the row becomes visible to
// queries once its batch is applied (at the latest when Flush returns).
// Append is safe for concurrent use; for the fastest single-goroutine
// path see Writer. The attrs map is not retained.
func (t *Table) Append(entityID, source string, attrs map[string]sqlparse.Value) error {
	return t.stage("Append", entityID, source, &rowCells{named: true, attrs: attrs})
}

// stage stages one row for call into its shard's open chunk and
// acknowledges it (commitStagedRow).
func (t *Table) stage(call, entityID, source string, row *rowCells) error {
	if err := t.checkRow(call, entityID, source, row); err != nil {
		return err
	}
	sid := t.internSource(source)
	h := hashEntity(entityID)
	si := shardOf(h)
	sh := t.shards[si]
	st := &sh.staging
	st.mu.Lock()
	c := t.openChunk(st)
	if err := c.stageRow(t.schema, entityID, h, sid, row, sh.store.Dict()); err != nil {
		st.mu.Unlock()
		return fmt.Errorf("engine: %s: entity %q: %w", t.name, entityID, err)
	}
	return t.commitStagedRow(si, st, c, entityID)
}

// commitStagedRow acknowledges the row just staged at the end of chunk c:
// on a durable table it is logged first, and a failed log append unstages
// it again and fails the call, so a nil return means the row is in the
// log. Caller holds st.mu; commitStagedRow releases it.
func (t *Table) commitStagedRow(si int, st *stagingBuf, c *obsChunk, entityID string) error {
	if t.wal != nil {
		seq, err := t.logRows(si, c, c.n-1, c.n)
		if err != nil {
			c.n--
			st.mu.Unlock()
			return fmt.Errorf("engine: %s: entity %q: %w", t.name, entityID, err)
		}
		st.walPending = append(st.walPending, seq)
	}
	st.rows++
	rows := st.rows
	// Counted before the lock drops, so a concurrent drain can never
	// decrement past it (StagedRows must not go transiently negative).
	t.ingest.staged.Add(1)
	st.mu.Unlock()
	t.afterStage(si, rows)
	return nil
}

// logRows appends rows [lo, hi) of the chunk as one record to the
// shard's WAL and returns its seq. By the time a staging call returns to
// its caller the row is in the log — that write is the acknowledgement
// the crash-recovery contract stands on. Callers hold st.mu, so record
// seqs follow staging order.
func (t *Table) logRows(si int, c *obsChunk, lo, hi int) (uint64, error) {
	var maxSid int32
	for i := lo; i < hi; i++ {
		if c.srcs[i] > maxSid {
			maxSid = c.srcs[i]
		}
	}
	names := t.srcNamesCovering(maxSid)
	return t.wal.appendChunkRows(si, t.schema, names, c, lo, hi)
}

// AppendRow is the positional fast path of Append: vals holds one value
// per schema column, in order (use sqlparse.Null() for NULL; all columns
// are treated as provided). vals is copied, so callers can reuse the
// slice across rows.
func (t *Table) AppendRow(entityID, source string, vals []sqlparse.Value) error {
	return t.stage("AppendRow", entityID, source, &rowCells{vals: vals})
}

// afterStage runs the post-staging policy: hand the shard to the
// background appliers at the batch threshold, or drain inline when there
// is no Ingester (synchronous batching) or staging grew past the
// backpressure bound (appliers behind).
func (t *Table) afterStage(si, stagedRows int) {
	batch := t.batchRowsValue()
	if stagedRows < batch {
		return
	}
	if ing := t.ingest.ing.Load(); ing != nil {
		ing.notifyShard(si)
		if stagedRows >= batch*stagePressureFactor {
			t.ingest.inlineDrains.Add(1)
			t.drainShard(si, nil)
		}
		return
	}
	t.ingest.inlineDrains.Add(1)
	t.drainShard(si, nil)
}

// drainShard applies everything staged on one shard. Drains are
// serialized per shard (FIFO apply order); apply errors are recorded for
// the next Flush. own is Insert's private one-row chunk (nil for every
// other drain): it is logged while the staged list is swapped out and
// applied after it, in the same batch, and drainShard returns its WAL
// failure or value conflict instead of recording it.
func (t *Table) drainShard(si int, own *obsChunk) error {
	sh := t.shards[si]
	st := &sh.staging
	st.applyMu.Lock()
	defer st.applyMu.Unlock()
	st.mu.Lock()
	chunks := st.chunks
	rows := st.rows
	pending := st.walPending
	st.chunks = nil
	st.rows = 0
	st.walPending = nil
	var ownErr error
	if own != nil && t.wal != nil {
		// Logged under st.mu, like every staged row: the record's seq
		// follows every swapped-out staged seq and precedes any later one,
		// so replay (in seq order) applies it exactly where this drain does.
		// A row the log does not hold is not acknowledged: it is dropped,
		// while the swapped-out rows (acknowledged already) still apply.
		if seq, err := t.logRows(si, own, 0, own.n); err != nil {
			ownErr = fmt.Errorf("engine: %s: entity %q: %w", t.name, own.ids[0], err)
			own = nil
		} else {
			pending = append(pending, seq)
		}
	}
	// The batch's WAL records move from pending to applying for the
	// duration of the apply: the checkpoint watermark must not pass them
	// until their rows are actually in the store.
	st.applying = pending
	st.mu.Unlock()
	if len(chunks) == 0 && own == nil {
		return ownErr
	}
	applied := rows
	if own != nil {
		applied += own.n
	}
	if err := t.applyChunks(si, chunks, own, pending); err != nil {
		ownErr = err // own's conflict (a failed log append left own nil)
	}
	st.mu.Lock()
	st.applying = nil
	st.mu.Unlock()
	t.ingest.staged.Add(-int64(rows))
	t.ingest.batches.Add(1)
	t.ingest.appliedRows.Add(uint64(applied))
	for _, c := range chunks {
		t.recycleChunk(c)
	}
	return ownErr
}

// drainAll drains every shard without consuming recorded errors (the
// periodic applier path); Flush adds the error barrier on top.
func (t *Table) drainAll() {
	for si := range t.shards {
		t.drainShard(si, nil)
	}
}

// Flush is the ingestion barrier: when it returns, every observation
// staged before the call — by any writer — is applied and visible to
// queries, giving the caller read-your-writes semantics. It returns the
// apply errors (value conflicts) recorded since the previous Flush; the
// conflicting observations still extended the lineage. Flush is safe for
// concurrent use and cheap when staging is empty.
func (t *Table) Flush() error {
	t.ingest.flushes.Add(1)
	t.drainAll()
	return t.takeIngestErrors()
}

// applyChunks applies one drained batch to the shard's store under a
// single write-lock acquisition, bumping the write epoch at most once.
// The per-row semantics live in shardStore.ApplyBatch: first insertion
// fixes the attribute values, later mentions extend the lineage
// idempotently, conflicting re-reports are recorded as errors (via the
// hooks) but still counted. own (Insert's private chunk, or nil) applies
// after chunks within the same lock hold, and its conflict is returned
// instead of recorded. pending carries the batch's WAL record seqs
// (durable mode; nil otherwise): once the batch is in the store, the
// shard's applied watermark advances past them.
func (t *Table) applyChunks(si int, chunks []*obsChunk, own *obsChunk, pending []uint64) (ownErr error) {
	sh := t.shards[si]
	sh.mu.Lock()
	hooks := t.hooks
	hooks.delta = &sh.delta
	sh.delta.begin(sh.store.Rows())
	changed := sh.store.ApplyBatch(chunks, hooks)
	if own != nil {
		sh.own[0] = own
		hooks.conflictOut = &sh.ownErr
		if sh.store.ApplyBatch(sh.own[:], hooks) {
			changed = true
		}
		sh.own[0] = nil
		if err := sh.ownErr; err != nil {
			sh.ownErr = nil
			ownErr = fmt.Errorf("engine: %s: entity %q: %w", t.name, own.ids[0], err)
		}
	}
	if changed {
		// One epoch bump per applied batch: every cached partial/result
		// built before this batch stops matching (see cache.go), and the
		// delta log records what the batch did to the stored rows.
		sh.store.BumpEpoch()
		sh.delta.commit()
	}
	for _, seq := range pending {
		if seq > t.walApplied[si] {
			t.walApplied[si] = seq
		}
	}
	// Housekeeping (sealing, compaction, durable checkpointing) failures
	// are recorded for the next Flush: the rows are applied and remain
	// served from memory either way, so they never fail a write.
	t.maintainShardLocked(sh, si)
	sh.mu.Unlock()
	if changed {
		// Outside the shard lock: subscriptions re-query on notification,
		// and a query read-locks every shard. One notification per applied
		// batch rides the one-epoch-bump-per-batch contract above — this is
		// the hook live subscriptions re-estimate on (see subscribe.go).
		t.notifyCommit()
	}
	return ownErr
}

// stagedApplyHooks builds the table's apply hooks for staged rows, whose
// conflicts are recorded for the next Flush. Built once per table, so a
// drain allocates no closures.
func (t *Table) stagedApplyHooks() applyHooks {
	return applyHooks{
		seq: &t.seq,
		conflict: func(id string, err error) {
			t.recordIngestErr(fmt.Errorf("engine: %s: entity %q: %w", t.name, id, err))
		},
	}
}

// stagedConflictErr renders a conflict between a stored and a staged cell
// (values are only boxed on this error path).
func stagedConflictErr(colName string, cols []colVector, sc *stagedCol, ci, row, srcRow int) error {
	prev, _ := cols[ci].value(row)
	v, _ := sc.value(srcRow)
	return fmt.Errorf("%w for column %q: %s vs %s (input not cleaned)", ErrConflict, colName, prev, v)
}

// IngestConfig configures a table's background ingestion (StartIngest).
// The zero value selects the defaults.
type IngestConfig struct {
	// BatchRows is the per-shard staging threshold at which a drain is
	// scheduled (default 256). Larger batches amortize locking and epoch
	// bumps further; smaller batches shorten the staging-to-visible
	// latency.
	BatchRows int
	// Appliers is the number of background applier goroutines draining
	// staged batches (default 1; they matter on multi-core hosts, where
	// application overlaps with staging).
	Appliers int
	// FlushEvery, when positive, drains all shards at this interval, so
	// slow trickles become visible without an explicit Flush. (This is a
	// drain, not a barrier: errors still surface at the next Flush.)
	FlushEvery time.Duration
}

// Ingester runs the background half of batched ingestion for one table:
// applier goroutines that drain staged batches, and an optional periodic
// drain. At most one Ingester can be active per table.
type Ingester struct {
	t      *Table
	cfg    IngestConfig
	notify chan int
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// StartIngest activates batched background ingestion and returns its
// handle. It fails if the table already has an active Ingester. Callers
// must Close the Ingester to stop its goroutines and apply the tail of
// the stream.
func (t *Table) StartIngest(cfg IngestConfig) (*Ingester, error) {
	if cfg.BatchRows < 0 || cfg.Appliers < 0 || cfg.FlushEvery < 0 {
		return nil, fmt.Errorf("engine: %s: negative IngestConfig", t.name)
	}
	if cfg.BatchRows == 0 {
		cfg.BatchRows = defaultBatchRows
	}
	if cfg.Appliers == 0 {
		cfg.Appliers = 1
	}
	ing := &Ingester{
		t:      t,
		cfg:    cfg,
		notify: make(chan int, numShards*2),
		stop:   make(chan struct{}),
	}
	if !t.ingest.ing.CompareAndSwap(nil, ing) {
		return nil, fmt.Errorf("engine: %s: an Ingester is already active", t.name)
	}
	t.ingest.batchRows.Store(int64(cfg.BatchRows))
	for i := 0; i < cfg.Appliers; i++ {
		ing.wg.Add(1)
		go ing.applierLoop()
	}
	if cfg.FlushEvery > 0 {
		ing.wg.Add(1)
		go ing.tickerLoop()
	}
	return ing, nil
}

// notifyShard hints the appliers that a shard crossed the batch
// threshold. Non-blocking: a full channel means the appliers are already
// saturated with work, and the backpressure path bounds staging growth.
func (ing *Ingester) notifyShard(si int) {
	select {
	case ing.notify <- si:
	default:
	}
}

func (ing *Ingester) applierLoop() {
	defer ing.wg.Done()
	for {
		select {
		case <-ing.stop:
			return
		case si := <-ing.notify:
			ing.t.drainShard(si, nil)
		}
	}
}

func (ing *Ingester) tickerLoop() {
	defer ing.wg.Done()
	tick := time.NewTicker(ing.cfg.FlushEvery)
	defer tick.Stop()
	for {
		select {
		case <-ing.stop:
			return
		case <-tick.C:
			ing.t.drainAll()
		}
	}
}

// NewWriter returns a Writer bound to this Ingester's table (see
// Table.NewWriter).
func (ing *Ingester) NewWriter() *Writer { return ing.t.NewWriter() }

// Flush is Table.Flush: a barrier over everything staged so far.
func (ing *Ingester) Flush() error { return ing.t.Flush() }

// Close stops the applier goroutines, applies everything still staged
// and returns the remaining ingest errors. Closing twice is a no-op; the
// table's staging APIs keep working afterwards (inline drains, or a new
// StartIngest).
func (ing *Ingester) Close() error {
	if !ing.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(ing.stop)
	ing.wg.Wait()
	// Restore the default inline-drain threshold BEFORE releasing the
	// ingester slot: no successor can be active yet, so this cannot stomp
	// a new Ingester's configuration, and later plain Append calls fall
	// back to the default batch size instead of this ingester's.
	ing.t.ingest.batchRows.Store(0)
	ing.t.ingest.ing.CompareAndSwap(ing, nil)
	return ing.t.Flush()
}

// Writer is the fastest staging path: a single-goroutine handle that
// accumulates rows in writer-local chunks (no locking at all) and hands
// full chunks to the shard staging wholesale. A Writer is NOT safe for
// concurrent use — give each producer goroutine its own. Rows buffered
// locally are invisible even to Table.Flush until the Writer pushes them
// (chunk full, or Writer.Flush).
//
// On a durable table the push is the acknowledgement point: the chunk is
// logged before it is staged. An error from the Append, AppendRow,
// AppendProvided or Flush call that pushed means the shard's buffered
// rows were not staged — not applied, not logged, not recovered.
// Re-sending them is safe: a same-source re-report of an entity is
// idempotent.
type Writer struct {
	t     *Table
	local [numShards]*obsChunk
	push  int // rows per local chunk before handing it to the shard

	// Last-source memo: streams often arrive in per-source runs (a source
	// publishes its whole report), making the intern of the previous row
	// almost always the right answer. The memo is a writer-local fact, so
	// no synchronization is needed.
	lastSrc string
	lastID  int32
}

// internMemo resolves a source name through the last-source memo, falling
// back to the table registry.
func (w *Writer) internMemo(source string) int32 {
	if source == w.lastSrc {
		return w.lastID
	}
	id := w.t.internSource(source)
	w.lastSrc = source
	w.lastID = id
	return id
}

// NewWriter returns a writer-local staging handle for the fast batched
// path. Works with or without an active Ingester.
func (t *Table) NewWriter() *Writer {
	push := t.batchRowsValue()
	if push > defaultBatchRows {
		push = defaultBatchRows
	}
	return &Writer{t: t, push: push}
}

// Append stages one observation through the writer-local buffer; see
// Table.Append for semantics.
func (w *Writer) Append(entityID, source string, attrs map[string]sqlparse.Value) error {
	return w.stage("Append", entityID, source, &rowCells{named: true, attrs: attrs})
}

// AppendRow stages one positional observation through the writer-local
// buffer; see Table.AppendRow for semantics.
func (w *Writer) AppendRow(entityID, source string, vals []sqlparse.Value) error {
	return w.stage("AppendRow", entityID, source, &rowCells{vals: vals})
}

// AppendProvided stages one positional observation that carries only some
// columns: vals holds one value per schema column, in order, and
// provided[i] reports whether the row carries column i (when false,
// vals[i] is ignored and the cell is missing, like a column absent from
// Append's attrs map; a nil provided carries every column, as AppendRow).
// Both slices are copied, so callers can reuse them across rows.
func (w *Writer) AppendProvided(entityID, source string, vals []sqlparse.Value, provided []bool) error {
	return w.stage("AppendProvided", entityID, source, &rowCells{vals: vals, provided: provided})
}

// stage stages one row for call into the writer-local chunk of its shard,
// pushing the chunk once it is full.
func (w *Writer) stage(call, entityID, source string, row *rowCells) error {
	t := w.t
	if err := t.checkRow(call, entityID, source, row); err != nil {
		return err
	}
	sid := w.internMemo(source)
	h := hashEntity(entityID)
	si := shardOf(h)
	c := w.chunk(si)
	if err := c.stageRow(t.schema, entityID, h, sid, row, t.shards[si].store.Dict()); err != nil {
		return fmt.Errorf("engine: %s: entity %q: %w", t.name, entityID, err)
	}
	if c.rows() >= w.push {
		return w.pushChunk(si)
	}
	return nil
}

func (w *Writer) chunk(si int) *obsChunk {
	c := w.local[si]
	if c == nil {
		c = w.t.borrowChunk()
		w.local[si] = c
	}
	return c
}

// pushChunk hands the writer-local chunk for one shard to the shard's
// staging (a pointer append — no row copying). On a durable table the
// chunk is logged first, as one WAL record under st.mu (so record seqs
// follow staging order); a failed log append drops the chunk, leaving the
// staging untouched, and returns the error.
func (w *Writer) pushChunk(si int) error {
	c := w.local[si]
	if c == nil || c.rows() == 0 {
		return nil
	}
	w.local[si] = nil
	t := w.t
	st := &t.shards[si].staging
	st.mu.Lock()
	if t.wal != nil {
		seq, err := t.logRows(si, c, 0, c.rows())
		if err != nil {
			st.mu.Unlock()
			t.recycleChunk(c)
			return fmt.Errorf("engine: %s: %w", t.name, err)
		}
		st.walPending = append(st.walPending, seq)
	}
	st.chunks = append(st.chunks, c)
	st.rows += c.rows()
	rows := st.rows
	t.ingest.staged.Add(int64(c.rows())) // before unlock: see Append
	st.mu.Unlock()
	t.afterStage(si, rows)
	return nil
}

// Flush pushes every writer-local buffer to its shard and runs the table
// barrier: when it returns, everything this writer appended is applied
// and visible (read-your-writes), and pending apply errors are returned.
// If a push fails, Flush returns the push errors without running the
// barrier; recorded apply errors then stay queued for the next Flush.
func (w *Writer) Flush() error {
	if err := w.pushAll(); err != nil {
		return err
	}
	return w.t.Flush()
}

// pushAll pushes every writer-local buffer to its shard and returns the
// joined push errors (nil when every push was staged).
func (w *Writer) pushAll() error {
	var errs []error
	for si := range w.local {
		if err := w.pushChunk(si); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
