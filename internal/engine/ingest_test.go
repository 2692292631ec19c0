package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

func ingestTestTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := &DB{}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "ok", Type: TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func rowAttrs(id string, v float64) map[string]sqlparse.Value {
	return map[string]sqlparse.Value{
		"name": sqlparse.StringValue(id),
		"v":    sqlparse.Number(v),
		"ok":   sqlparse.BoolValue(true),
	}
}

func rowVals(id string, v float64) []sqlparse.Value {
	return []sqlparse.Value{
		sqlparse.StringValue(id),
		sqlparse.Number(v),
		sqlparse.BoolValue(true),
	}
}

// TestAppendInvisibleUntilFlush pins the core visibility contract: staged
// rows are invisible to every read path until the Flush barrier, then all
// visible.
func TestAppendInvisibleUntilFlush(t *testing.T) {
	db, tbl := ingestTestTable(t)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := tbl.Append(id, "src", rowAttrs(id, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.NumRecords(); got != 0 {
		t.Errorf("records before flush = %d, want 0 (staged rows must be invisible)", got)
	}
	if got := tbl.NumObservations(); got != 0 {
		t.Errorf("observations before flush = %d, want 0", got)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 0 {
		t.Errorf("query before flush sees %g rows", res.Observed)
	}
	if got := tbl.StagedRows(); got != 10 {
		t.Errorf("StagedRows = %d, want 10", got)
	}

	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRecords(); got != 10 {
		t.Errorf("records after flush = %d, want 10", got)
	}
	if got := tbl.StagedRows(); got != 0 {
		t.Errorf("StagedRows after flush = %d, want 0", got)
	}
	res, err = db.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 45 {
		t.Errorf("SUM after flush = %g, want 45", res.Observed)
	}
}

// TestAppendRowMatchesAppend verifies the positional fast path produces
// the same table as the map path.
func TestAppendRowMatchesAppend(t *testing.T) {
	_, tblA := ingestTestTable(t)
	_, tblB := ingestTestTable(t)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("e%d", i%7)
		src := fmt.Sprintf("s%d", i%3)
		if err := tblA.Append(id, src, rowAttrs(id, float64(i%7))); err != nil {
			t.Fatal(err)
		}
		if err := tblB.AppendRow(id, src, rowVals(id, float64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tblA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tblB.Flush(); err != nil {
		t.Fatal(err)
	}
	sa, err := tblA.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := tblB.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Errorf("Append and AppendRow built different samples: %x vs %x", sa.Fingerprint(), sb.Fingerprint())
	}
}

// TestAppendValidation: schema violations surface synchronously and stage
// nothing.
func TestAppendValidation(t *testing.T) {
	_, tbl := ingestTestTable(t)
	w := tbl.NewWriter()
	cases := []struct {
		name string
		err  string
		is   error // sentinel the error must match, if any
		do   func() error
	}{
		{"empty entity", "empty entity", ErrInvalidRow, func() error { return tbl.Append("", "s", rowAttrs("x", 1)) }},
		{"empty source", "empty source", ErrInvalidRow, func() error { return tbl.Append("e", "", rowAttrs("x", 1)) }},
		{"unknown column", "unknown column", ErrUnknownColumn, func() error {
			return tbl.Append("e", "s", map[string]sqlparse.Value{"nope": sqlparse.Number(1)})
		}},
		{"type mismatch map", "expects FLOAT", ErrInvalidRow, func() error {
			return tbl.Append("e", "s", map[string]sqlparse.Value{"v": sqlparse.StringValue("x")})
		}},
		{"type mismatch positional", "expects STRING", ErrInvalidRow, func() error {
			return tbl.AppendRow("e", "s", []sqlparse.Value{sqlparse.Number(3), sqlparse.Number(1), sqlparse.BoolValue(true)})
		}},
		{"wrong arity", "3 columns", nil, func() error {
			return tbl.AppendRow("e", "s", []sqlparse.Value{sqlparse.Number(1)})
		}},
		{"writer empty entity", "empty entity", ErrInvalidRow, func() error { return w.Append("", "s", rowAttrs("x", 1)) }},
		{"writer type mismatch", "expects BOOL", ErrInvalidRow, func() error {
			return w.AppendRow("e", "s", []sqlparse.Value{sqlparse.StringValue("x"), sqlparse.Number(1), sqlparse.Number(1)})
		}},
		{"insert empty source", "empty source", ErrInvalidRow, func() error { return tbl.Insert("e", "", rowAttrs("x", 1)) }},
		{"insert type mismatch", "expects STRING", ErrInvalidRow, func() error {
			return tbl.Insert("e", "s", map[string]sqlparse.Value{"name": sqlparse.Number(1)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.do()
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.err) {
				t.Errorf("error %q does not mention %q", err, tc.err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %q does not match %v", err, tc.is)
			}
			if tc.is == nil && errors.Is(err, ErrInvalidRow) {
				t.Errorf("error %q matches ErrInvalidRow", err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Errorf("writer flush after rejected appends: %v", err)
	}
	if got := tbl.StagedRows(); got != 0 {
		t.Errorf("rejected rows were staged: StagedRows = %d", got)
	}
	if err := tbl.Flush(); err != nil {
		t.Errorf("flush after rejected appends: %v", err)
	}
	if got := tbl.NumRecords(); got != 0 {
		t.Errorf("rejected rows materialized: %d records", got)
	}
}

// TestNullAndMissingColumnsThroughStaging checks the defined/valid
// distinction survives the staging hop (NULL vs not-provided), matching
// Insert semantics.
func TestNullAndMissingColumnsThroughStaging(t *testing.T) {
	_, tbl := ingestTestTable(t)
	// e1: "ok" never provided; e2: "ok" provided as NULL.
	if err := tbl.Append("e1", "s", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("e1"), "v": sqlparse.Number(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append("e2", "s", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("e2"), "v": sqlparse.Number(2), "ok": sqlparse.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := tbl.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if _, ok := recs[0].Attrs["ok"]; ok {
		t.Error("missing column materialized for e1")
	}
	if v, ok := recs[1].Attrs["ok"]; !ok || v.Kind != sqlparse.ValueNull {
		t.Errorf("provided NULL lost for e2: %v (ok=%v)", v, ok)
	}
	// Referencing a never-provided column errors (historical semantics).
	if _, err := tbl.Sample("v", mustPredicate(t, "ok = TRUE")); err == nil {
		t.Error("predicate on never-provided column did not error")
	}

	// On a table where every row provides the column, a staged NULL must
	// match IS NULL exactly like an inserted NULL.
	_, tbl2 := ingestTestTable(t)
	if err := tbl2.Append("n1", "s", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("n1"), "v": sqlparse.Number(1), "ok": sqlparse.Null(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Append("n2", "s", rowAttrs("n2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := tbl2.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := tbl2.Sample("v", mustPredicate(t, "ok IS NULL"))
	if err != nil {
		t.Fatal(err)
	}
	if s.C() != 1 {
		t.Errorf("IS NULL matched %d entities, want 1 (n1)", s.C())
	}
}

// TestInlineDrainAtThreshold: without an Ingester, staging drains itself
// once a shard crosses the batch threshold — the batched API works fully
// synchronously.
func TestInlineDrainAtThreshold(t *testing.T) {
	_, tbl := ingestTestTable(t)
	// All rows to one entity's shard: same entity, many sources.
	for i := 0; i < defaultBatchRows; i++ {
		if err := tbl.Append("e0", fmt.Sprintf("s%d", i), rowAttrs("e0", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.NumObservations(); got != defaultBatchRows {
		t.Errorf("observations after threshold = %d, want %d (inline drain did not run)", got, defaultBatchRows)
	}
	st := tbl.IngestStats()
	if st.InlineDrains == 0 {
		t.Error("InlineDrains = 0")
	}
	if st.Batches == 0 || st.AppliedRows != defaultBatchRows {
		t.Errorf("stats = %+v", st)
	}
}

// TestEpochPerBatch: one applied batch invalidates an affected shard's
// cached bitmap exactly once — per batch, not per row.
func TestEpochPerBatch(t *testing.T) {
	db, tbl := ingestTestTable(t)
	// Ensure a valid "ok" everywhere so predicates compile over all rows.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("seed%d", i)
		if err := tbl.Insert(id, "s", rowAttrs(id, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	query := func() {
		t.Helper()
		if _, err := db.Query("SELECT SUM(v) FROM t WHERE v >= 10"); err != nil {
			t.Fatal(err)
		}
	}
	query() // cold: builds one bitmap per shard
	base := tbl.CacheStats()
	query() // warm: all hits
	warm := tbl.CacheStats()
	if warm.BitmapMisses != base.BitmapMisses {
		t.Fatalf("warm query missed bitmaps: %d -> %d", base.BitmapMisses, warm.BitmapMisses)
	}

	// Stage a batch of observations that all land in ONE entity's shard,
	// then flush: exactly one shard's epoch moves (one bump for the whole
	// batch), so the re-query recomputes exactly one bitmap.
	for i := 0; i < 100; i++ {
		if err := tbl.Append("seed0", fmt.Sprintf("batchsrc%d", i), rowAttrs("seed0", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	query()
	after := tbl.CacheStats()
	if got := after.BitmapMisses - warm.BitmapMisses; got != 1 {
		t.Errorf("bitmap recomputes after one batch = %d, want exactly 1", got)
	}
}

// TestIngesterAppliesInBackground: with appliers running, threshold
// batches become visible without any Flush call.
func TestIngesterAppliesInBackground(t *testing.T) {
	_, tbl := ingestTestTable(t)
	ing, err := tbl.StartIngest(IngestConfig{BatchRows: 32, Appliers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	for i := 0; i < 64; i++ {
		if err := tbl.Append("e0", fmt.Sprintf("s%d", i), rowAttrs("e0", 0)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tbl.NumObservations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("appliers never drained a threshold batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngesterFlushEvery: the periodic drain makes a sub-threshold
// trickle visible without an explicit Flush.
func TestIngesterFlushEvery(t *testing.T) {
	_, tbl := ingestTestTable(t)
	ing, err := tbl.StartIngest(IngestConfig{BatchRows: 1 << 20, FlushEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if err := tbl.Append("e0", "s0", rowAttrs("e0", 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tbl.NumObservations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic drain never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngesterLifecycle: single active ingester, Close applies the tail
// and is idempotent, and the table remains usable afterwards.
func TestIngesterLifecycle(t *testing.T) {
	_, tbl := ingestTestTable(t)
	ing, err := tbl.StartIngest(IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.StartIngest(IngestConfig{}); err == nil {
		t.Error("second StartIngest did not fail")
	}
	w := ing.NewWriter()
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := w.AppendRow(id, "s", rowVals(id, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Writer-local rows are invisible even to Flush until pushed.
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRecords(); got != 0 {
		t.Errorf("writer-local rows leaked into the table: %d", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRecords(); got != 10 {
		t.Errorf("records after writer flush = %d, want 10", got)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// A fresh ingester can start after Close.
	ing2, err := tbl.StartIngest(IngestConfig{BatchRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	// Close restored the default inline-drain threshold: plain appends
	// must become visible at defaultBatchRows again, not at the closed
	// ingester's huge batch size.
	if got := tbl.batchRowsValue(); got != defaultBatchRows {
		t.Errorf("batch threshold after Close = %d, want default %d", got, defaultBatchRows)
	}
	for i := 0; i < defaultBatchRows; i++ {
		if err := tbl.Append("e0", fmt.Sprintf("post-close-%d", i), rowAttrs("e0", 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.StagedRows(); got != 0 {
		t.Errorf("threshold drain did not run after Close: %d rows staged", got)
	}
}

// TestConflictSurfacesAtFlush: a conflicting re-report is applied like
// Insert (lineage extended, first value kept) and the error surfaces at
// the next Flush, in Insert's error shape.
func TestConflictSurfacesAtFlush(t *testing.T) {
	db, tbl := ingestTestTable(t)
	if err := tbl.Append("e0", "s0", rowAttrs("e0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Same entity, new source, different value: staged fine, conflicts at
	// apply.
	bad := rowAttrs("e0", 99)
	if err := tbl.Append("e0", "s1", bad); err != nil {
		t.Fatalf("conflict reported synchronously: %v", err)
	}
	err := tbl.Flush()
	if err == nil {
		t.Fatal("conflict not surfaced at Flush")
	}
	if !strings.Contains(err.Error(), "conflicting values") || !strings.Contains(err.Error(), "input not cleaned") {
		t.Errorf("conflict error = %q", err)
	}
	// Mirrors Insert: the observation still counted, first value kept.
	if got := tbl.ObservationCount("e0"); got != 2 {
		t.Errorf("observations for e0 = %d, want 2", got)
	}
	res, qerr := db.Query("SELECT SUM(v) FROM t")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if res.Observed != 1 {
		t.Errorf("SUM = %g, want 1 (first value wins)", res.Observed)
	}
	// Errors are consumed by the Flush that reported them.
	if err := tbl.Flush(); err != nil {
		t.Errorf("second flush still errors: %v", err)
	}
	// An idempotent duplicate re-report does NOT re-check consistency
	// (mirrors Insert's early return).
	if err := tbl.Append("e0", "s1", bad); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Errorf("idempotent duplicate raised: %v", err)
	}
}

// TestFlushOnQuery: the executor's opt-in barrier gives queries
// read-your-writes over staged rows.
func TestFlushOnQuery(t *testing.T) {
	db, tbl := ingestTestTable(t)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := tbl.Append(id, "s", rowAttrs(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 0 {
		t.Fatalf("point-in-time query saw staged rows: %g", res.Observed)
	}
	db.FlushOnQuery = true
	res, err = db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 5 {
		t.Errorf("FlushOnQuery query = %g rows, want 5", res.Observed)
	}
}

// TestFlushOnQueryWithResultCache: the barrier runs before the epoch
// vector is captured, so a cached result can never mask staged rows.
func TestFlushOnQueryWithResultCache(t *testing.T) {
	db, tbl := ingestTestTable(t)
	db.FlushOnQuery = true
	db.EnableResultCache(1 << 20)
	if err := tbl.Append("e0", "s", rowAttrs("e0", 1)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 1 {
		t.Fatalf("first query = %g", res.Observed)
	}
	if err := tbl.Append("e1", "s", rowAttrs("e1", 2)); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 2 {
		t.Errorf("cached result served over staged row: %g, want 2", res.Observed)
	}
}

// TestFlushOnQueryKeepsConflictWarnings: the per-query drain barrier is
// a pure visibility barrier — a reader's query neither fails on nor
// consumes another writer's pending conflict warnings; the writer's own
// Flush still receives them.
func TestFlushOnQueryKeepsConflictWarnings(t *testing.T) {
	db, tbl := ingestTestTable(t)
	db.FlushOnQuery = true
	if err := tbl.Insert("e0", "s0", rowAttrs("e0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append("e0", "s1", rowAttrs("e0", 99)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("reader query failed on a writer's conflict warning: %v", err)
	}
	if res.Observed != 1 {
		t.Errorf("barrier did not apply staged row: COUNT = %g", res.Observed)
	}
	err = tbl.Flush()
	if err == nil {
		t.Fatal("query consumed the writer's conflict warning")
	}
	if !strings.Contains(err.Error(), "conflicting values") {
		t.Errorf("flush error = %q", err)
	}
}

// TestSaveKeepsConflictWarnings: Save drains staging but neither aborts
// on nor consumes pending conflict warnings (the table state is valid —
// first value wins, same as Insert).
func TestSaveKeepsConflictWarnings(t *testing.T) {
	db, tbl := ingestTestTable(t)
	if err := tbl.Insert("e0", "s0", rowAttrs("e0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append("e0", "s1", rowAttrs("e0", 99)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save aborted on a non-fatal conflict warning: %v", err)
	}
	if tbl.StagedRows() != 0 {
		t.Error("Save did not drain staging")
	}
	if err := tbl.Flush(); err == nil {
		t.Error("Save consumed the writer's conflict warning")
	}
}

// TestStreamObservationsMatchesLoadObservations: the shared streaming
// loader produces the same table and the same conflict count as the
// per-row loader.
func TestStreamObservationsMatchesLoadObservations(t *testing.T) {
	mkObs := func() []freqstats.Observation {
		var obs []freqstats.Observation
		for i := 0; i < 300; i++ {
			obs = append(obs, freqstats.Observation{
				EntityID: fmt.Sprintf("e%d", i%40),
				Source:   fmt.Sprintf("s%d", i%7),
				Value:    float64(i % 40),
			})
		}
		// Conflicting re-reports: same entity, new sources, new values.
		// More than maxIngestErrors of them, so the streamed path must
		// recover the exact count from the dropped-errors summary too.
		for i := 0; i < maxIngestErrors+8; i++ {
			obs = append(obs, freqstats.Observation{
				EntityID: "e1",
				Source:   fmt.Sprintf("s-bad%d", i),
				Value:    float64(1000 + i),
			})
		}
		return obs
	}
	mkTable := func(db *DB) *Table {
		tbl, err := db.CreateTable("t", Schema{
			{Name: "name", Type: TypeString},
			{Name: "v", Type: TypeFloat},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	var dbA, dbB DB
	ta, tb := mkTable(&dbA), mkTable(&dbB)
	ca, err := LoadObservations(ta, mkObs(), "v", "name")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := StreamObservations(tb, mkObs(), "v", "name", 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("conflicts: per-row %d vs streamed %d", ca, cb)
	}
	sa, err := ta.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := tb.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Errorf("loaders built different samples: %x vs %x", sa.Fingerprint(), sb.Fingerprint())
	}
}

// TestMixedInsertAndAppend: the per-row and batched paths interleave on
// one table without losing observations (shared lineage + epoch
// machinery).
func TestMixedInsertAndAppend(t *testing.T) {
	_, tbl := ingestTestTable(t)
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("e%d", i%10)
		src := fmt.Sprintf("s%d", i%5)
		var err error
		if i%2 == 0 {
			err = tbl.Insert(id, src, rowAttrs(id, float64(i%10)))
		} else {
			err = tbl.Append(id, src, rowAttrs(id, float64(i%10)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRecords(); got != 10 {
		t.Errorf("records = %d, want 10", got)
	}
	s, err := tbl.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestIngestStatsCounters sanity-checks the counter surface.
func TestIngestStatsCounters(t *testing.T) {
	_, tbl := ingestTestTable(t)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("e%d", i)
		if err := tbl.Append(id, "s", rowAttrs(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := tbl.IngestStats()
	if st.StagedRows != 10 || st.Flushes != 0 {
		t.Errorf("pre-flush stats = %+v", st)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	st = tbl.IngestStats()
	if st.StagedRows != 0 || st.AppliedRows != 10 || st.Flushes != 1 || st.Batches == 0 {
		t.Errorf("post-flush stats = %+v", st)
	}
}
