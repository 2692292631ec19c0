package engine

// Incremental requery: a repeated query must rescan only the shards whose
// epoch moved since the last run, serving every clean shard from the
// partial-sample cache, and the re-merged result must be bitwise-identical
// to a cold from-scratch query at the same epochs. The hit/miss counter
// tests pin the "exactly the dirty shards" contract; the metamorphic test
// pins bitwise parity across random write interleavings.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// partialDelta returns the partial-cache hit/miss movement between two
// CacheStats snapshots.
func partialDelta(before, after CacheStats) (hits, misses uint64) {
	return after.PartialHits - before.PartialHits, after.PartialMisses - before.PartialMisses
}

// TestIncrementalRequeryRescansOnlyDirtyShards is the acceptance check
// from the incremental pipeline: with 1 of 16 shards dirtied between two
// runs of the same query, the second run serves 15 shards from the
// partial cache and rescans exactly 1.
func TestIncrementalRequeryRescansOnlyDirtyShards(t *testing.T) {
	db := &DB{}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	type insertion struct {
		id, src string
		attrs   map[string]sqlparse.Value
	}
	var log []insertion
	insert := func(id, src string, attrs map[string]sqlparse.Value) {
		t.Helper()
		if err := tbl.Insert(id, src, attrs); err != nil {
			t.Fatal(err)
		}
		log = append(log, insertion{id, src, attrs})
	}
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("e%03d", i)
		insert(id, fmt.Sprintf("s%d", i%6), map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i % 50)),
		})
	}

	const q = "SELECT SUM(v) FROM t WHERE v >= 10"

	// Cold run: every shard is a partial-cache miss.
	base := tbl.CacheStats()
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := partialDelta(base, tbl.CacheStats())
	if hits != 0 || misses != numShards {
		t.Fatalf("cold run: partial hits/misses = %d/%d, want 0/%d", hits, misses, numShards)
	}

	// Clean repeat: every shard served from cache, zero rescans.
	base = tbl.CacheStats()
	clean, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards || misses != 0 {
		t.Fatalf("clean repeat: partial hits/misses = %d/%d, want %d/0", hits, misses, numShards)
	}
	if clean.Sample.Fingerprint() != first.Sample.Fingerprint() {
		t.Fatal("clean repeat changed the sample")
	}

	// Idempotent re-insert does not move any epoch: still all hits.
	insert("e000", "s0", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("e000"),
		"v":    sqlparse.Number(0),
	})
	base = tbl.CacheStats()
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards || misses != 0 {
		t.Fatalf("after idempotent re-insert: partial hits/misses = %d/%d, want %d/0", hits, misses, numShards)
	}

	// Dirty exactly one shard (one new entity lives in one shard) and
	// requery: 15 cache serves, 1 rescan.
	insert("fresh-entity", "s0", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("fresh-entity"),
		"v":    sqlparse.Number(25),
	})
	base = tbl.CacheStats()
	dirty, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards-1 || misses != 1 {
		t.Fatalf("1-of-%d-dirty requery: partial hits/misses = %d/%d, want %d/1",
			numShards, hits, misses, numShards-1)
	}

	// The incremental result must equal a cold all-caches-off rebuild.
	coldDB := &DB{}
	coldTbl, err := coldDB.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	coldTbl.SetScanCacheLimits(0, 0)
	for _, ins := range log {
		if err := coldTbl.Insert(ins.id, ins.src, ins.attrs); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := coldDB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dirty.Sample.Fingerprint(), cold.Sample.Fingerprint(); got != want {
		t.Fatalf("incremental sample fingerprint %x != cold rebuild %x", got, want)
	}
	if dirty.Observed != cold.Observed || !reflect.DeepEqual(dirty.Estimates, cold.Estimates) {
		t.Fatalf("incremental result differs from cold rebuild:\n  got  %+v\n  want %+v",
			dirty.Estimates, cold.Estimates)
	}
}

// TestIncrementalPartialCacheDisabled: with a zero partial budget the
// pipeline degrades to full rescans — no hits, no stored partials.
func TestIncrementalPartialCacheDisabled(t *testing.T) {
	db := &DB{}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetScanCacheLimits(0, 0)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("e%02d", i)
		if err := tbl.Insert(id, "s0", map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT SUM(v) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	stats := tbl.CacheStats()
	if stats.PartialHits != 0 {
		t.Fatalf("partial hits = %d with cache disabled, want 0", stats.PartialHits)
	}
	if stats.PartialBytes != 0 {
		t.Fatalf("partial bytes = %d with cache disabled, want 0", stats.PartialBytes)
	}
}

// TestMetamorphicIncrementalRequery interleaves random per-row inserts,
// batched appends and Flush barriers with repeated queries on one live
// DB, and at every checkpoint compares the live (warm-partial,
// result-cached) query surface against a cold from-scratch rebuild of
// the same prefix with every cache disabled. Bitwise equality is checked
// deep: sample fingerprints, per-source attribution, and every estimator
// number.
func TestMetamorphicIncrementalRequery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	obs := metaWorkload(rng, 30, 6, 360)

	liveDB, liveTbl := metaTable(t, WithResultCache(8<<20))

	checkpoints := 0
	for next := 0; next < len(obs); {
		// One segment: a random run of writes through a random mix of the
		// per-row and batched paths, ending in a Flush barrier.
		segEnd := next + 30 + rng.Intn(60)
		if segEnd > len(obs) {
			segEnd = len(obs)
		}
		for ; next < segEnd; next++ {
			o := obs[next]
			var err error
			if rng.Intn(3) == 0 {
				err = liveTbl.Insert(o.entity, o.source, o.attrs)
			} else {
				err = liveTbl.Append(o.entity, o.source, o.attrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Keep the live caches genuinely warm mid-segment: queries here
			// mix cached partials with freshly dirtied shards. The string
			// variant keeps dictionary-kernel partials in the warm set too,
			// so the checkpoint diff covers warm string scans against a
			// cold rebuild.
			if rng.Intn(29) == 0 {
				q := "SELECT SUM(v) FROM t WHERE v >= 50"
				if rng.Intn(2) == 0 {
					q = "SELECT SUM(v) FROM t WHERE grp != 'g1' AND name BETWEEN 'e05' AND 'e25'"
				}
				if _, err := liveDB.Query(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := liveTbl.Flush(); err != nil {
			t.Fatal(err)
		}
		checkpoints++

		// Cold rebuild of the same prefix, all caches off.
		coldDB, coldTbl := metaTable(t)
		coldTbl.SetScanCacheLimits(0, 0)
		for _, o := range obs[:next] {
			if err := coldTbl.Insert(o.entity, o.source, o.attrs); err != nil {
				t.Fatal(err)
			}
		}
		querySurface(t, coldDB, liveDB, fmt.Sprintf("checkpoint %d (rows %d)", checkpoints, next))
	}
	if checkpoints < 3 {
		t.Fatalf("workload produced only %d checkpoints; widen the segments", checkpoints)
	}
}

// Delta partials. A repeated query whose cached partial went stale catches
// it up from the shard's delta log instead of rescanning (delta.go). The
// suites below pin that a caught-up partial is the partial a fresh scan
// builds — same Fingerprint (seq, ID, value bits and lineage, row by row
// in order), same rows and observations, same merged SumValues bits —
// across random write interleavings on every backend, and that every gap
// the log cannot bridge falls back to the full scan.

// deltaQueries are the (aggregate attribute, predicate) pairs the delta
// suites check: SUM and COUNT(*) partials under predicates over each
// column kind, with NULL aggregate cells (v, extra) and missing ones
// (extra).
var deltaQueries = []struct{ attr, where string }{
	{"v", ""},
	{"", ""},
	{"v", "grp != 'g1'"},
	{"", "v >= 30"},
	{"v", "name BETWEEN 'e0005' AND 'e0040' OR v IS NULL"},
	{"extra", "grp IN ('g0', 'g2')"},
}

// checkDeltaParity runs every delta query on tbl, then compares each
// shard's cached partial — caught up or scanned, whichever the query did —
// and the merged sample with a fresh full scan of the same shards. With
// cached false the partial layer is expected to hold nothing.
func checkDeltaParity(t testing.TB, tbl *Table, cached bool, label string) {
	t.Helper()
	for _, q := range deltaQueries {
		var where sqlparse.Expr
		if q.where != "" {
			where = mustPredicate(t, q.where)
		}
		got, err := tbl.Sample(q.attr, where)
		if err != nil {
			t.Fatalf("%s: SUM(%s) WHERE %s: %v", label, q.attr, q.where, err)
		}
		attrCol, err := tbl.checkAggregateColumn(q.attr)
		if err != nil {
			t.Fatal(err)
		}
		prog, key, err := tbl.compiledFilter(where)
		if err != nil {
			t.Fatal(err)
		}
		var fresh [numShards]*freqstats.Partial
		release := tbl.rlockAll()
		names := tbl.sourceNameTable()
		for i, sh := range tbl.shards {
			p, err := tbl.scanShard(sh, attrCol, prog)
			if err != nil {
				release()
				t.Fatal(err)
			}
			fresh[i] = p
			c, _, hit := tbl.cache.lookupPartial(partialKey{expr: key, attr: q.attr, shard: i}, sh.store.Epoch())
			switch {
			case !cached && c != nil:
				release()
				t.Fatalf("%s: shard %d cached a partial with the partial layer off", label, i)
			case cached && !hit:
				release()
				t.Fatalf("%s: shard %d holds no partial at its current epoch after the query", label, i)
			case cached && (c.Fingerprint() != p.Fingerprint() || c.Rows() != p.Rows() || c.Obs() != p.Obs()):
				release()
				t.Fatalf("%s: attr %q where %q shard %d: cached partial (%d rows, %d obs, fp %x) != fresh scan (%d rows, %d obs, fp %x)",
					label, q.attr, q.where, i, c.Rows(), c.Obs(), c.Fingerprint(), p.Rows(), p.Obs(), p.Fingerprint())
			}
		}
		release()
		want, err := mergePartials(names, fresh[:])
		for _, p := range fresh {
			releaseSamplePart(p)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() || math.Float64bits(got.SumValues()) != math.Float64bits(want.SumValues()) {
			t.Fatalf("%s: attr %q where %q: sample (fp %x, sum %v) != fresh scan (fp %x, sum %v)",
				label, q.attr, q.where, got.Fingerprint(), got.SumValues(), want.Fingerprint(), want.SumValues())
		}
	}
}

// onlyConflicts reports whether err consists of apply-time value
// conflicts alone (a re-report with different values is recorded, not
// applied, and the scripts below provoke them on purpose).
func onlyConflicts(err error) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !onlyConflicts(e) {
				return false
			}
		}
		return true
	}
	var dropped droppedIngestErrors
	return errors.Is(err, ErrConflict) || errors.As(err, &dropped)
}

// deltaScript replays a byte program against a metaTable-shaped table.
// Each byte's low three bits pick a step and the high five an argument:
// a new entity (its v cell a value or NULL, its extra cell a value, NULL
// or missing), a
// re-report from some source with the entity's own values (new lineage,
// or an idempotent duplicate), a conflicting re-report, a Flush (with a
// compaction now and then), or a Flush followed by checkDeltaParity.
// Writes go through Insert, Append or a Writer batch by turns.
func deltaScript(t testing.TB, tbl *Table, cached bool, prog []byte) {
	t.Helper()
	type entity struct {
		id    string
		attrs map[string]sqlparse.Value
	}
	var ents []entity
	var w *Writer
	writes := 0
	write := func(id string, src byte, attrs map[string]sqlparse.Value) {
		source := fmt.Sprintf("s%02d", src%12)
		var err error
		switch writes++; writes % 3 {
		case 0:
			err = tbl.Insert(id, source, attrs)
		case 1:
			err = tbl.Append(id, source, attrs)
		default:
			if w == nil {
				w = tbl.NewWriter()
			}
			err = w.Append(id, source, attrs)
		}
		if err != nil && !onlyConflicts(err) {
			t.Fatalf("write %s from %s: %v", id, source, err)
		}
	}
	flush := func() {
		if w != nil {
			if err := w.Flush(); err != nil && !onlyConflicts(err) {
				t.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil && !onlyConflicts(err) {
			t.Fatal(err)
		}
	}
	checks := 0
	for _, b := range prog {
		op, arg := b&7, b>>3
		switch {
		case op <= 2 || len(ents) == 0:
			id := fmt.Sprintf("e%04d", len(ents))
			a := map[string]sqlparse.Value{
				"name": sqlparse.StringValue(id),
				"v":    sqlparse.Number(float64(arg) * 5),
				"grp":  sqlparse.StringValue(fmt.Sprintf("g%d", arg%3)),
			}
			// v is always provided (the predicates read it); extra, only
			// ever aggregated, may be missing.
			switch arg % 5 {
			case 0:
				a["v"] = sqlparse.Null()
			case 1:
			case 2:
				a["extra"] = sqlparse.Null()
			default:
				a["extra"] = sqlparse.Number(float64(len(ents)))
			}
			ents = append(ents, entity{id, a})
			write(id, arg, a)
		case op <= 4:
			e := ents[(int(arg)*7+int(b))%len(ents)]
			write(e.id, arg, e.attrs)
		case op == 5:
			e := ents[(int(arg)*3)%len(ents)]
			a := maps.Clone(e.attrs)
			a["v"] = sqlparse.Number(-1 - float64(arg))
			write(e.id, arg+1, a)
		case op == 6:
			flush()
			if arg%4 == 0 {
				if err := tbl.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			flush()
			checks++
			checkDeltaParity(t, tbl, cached, fmt.Sprintf("check %d", checks))
		}
	}
	flush()
	checkDeltaParity(t, tbl, cached, "final check")
}

// randomDeltaProgram draws a deltaScript program in which about one step
// in eight is a parity check.
func randomDeltaProgram(rng *rand.Rand, n int) []byte {
	prog := make([]byte, n)
	for i := range prog {
		prog[i] = byte(rng.Intn(256))
	}
	return prog
}

// deltaBackends are the storages the delta suites run on: memory, and
// disk with tiny segments and eager compaction (every segment after the
// first starts unaligned), mmap'd and not.
func deltaBackends(t *testing.T) map[string]StorageConfig {
	return map[string]StorageConfig{
		"mem":       {Backend: BackendMemory},
		"disk":      {Backend: BackendDisk, Dir: t.TempDir(), SegmentRows: 13, CompactSegments: 3},
		"disk-read": {Backend: BackendDisk, Dir: t.TempDir(), SegmentRows: 13, CompactSegments: 3, DisableMmap: true},
	}
}

// TestDeltaPartialParity drives random interleavings of new entities,
// lineage-only, duplicate and conflicting re-reports, NULL and missing
// cells, Insert/Append/Writer batches, seals and compactions on every
// backend, checking caught-up partials against fresh scans after each
// query, and that the catch-up path actually ran and is reported by both
// Table.CacheStats and DB.CacheStats.
func TestDeltaPartialParity(t *testing.T) {
	for name, storage := range deltaBackends(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				db, tbl := metaTableStorage(t, storage)
				deltaScript(t, tbl, true, randomDeltaProgram(rand.New(rand.NewSource(seed)), 600))
				n := tbl.CacheStats().PartialCatchUps
				if n == 0 {
					t.Fatalf("seed %d: no partial was caught up from a stale one", seed)
				}
				if got := db.CacheStats().PartialCatchUps; got != n {
					t.Fatalf("seed %d: DB reports %d catch-ups, its one table %d", seed, got, n)
				}
			}
		})
	}
}

// TestDeltaPartialCacheDisabled: with the partial layer off there is no
// base to catch up from, so every query scans in full.
func TestDeltaPartialCacheDisabled(t *testing.T) {
	_, tbl := metaTable(t)
	tbl.SetScanCacheLimits(defaultProgramCacheEntries, 0)
	deltaScript(t, tbl, false, randomDeltaProgram(rand.New(rand.NewSource(5)), 300))
	if n := tbl.CacheStats().PartialCatchUps; n != 0 {
		t.Fatalf("%d catch-ups with the partial cache disabled", n)
	}
}

// touchEveryShard applies one Writer batch that re-reports every given
// entity from a fresh source, so every shard's epoch moves and its delta
// log logs touched rows.
func touchEveryShard(t *testing.T, tbl *Table, ids []string, source string) {
	t.Helper()
	w := tbl.NewWriter()
	for _, id := range ids {
		if err := w.Append(id, source, map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id), "v": sqlparse.Number(7), "grp": sqlparse.StringValue("g0"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaLogWindowFallback: a base older than the log's batch window is
// not caught up; the shard is rescanned, and the next batch's catch-up
// resumes from the rescanned partial.
func TestDeltaLogWindowFallback(t *testing.T) {
	_, tbl := metaTable(t)
	var ids []string
	for i := 0; i < 200; i++ {
		ids = append(ids, fmt.Sprintf("e%04d", i))
	}
	touchEveryShard(t, tbl, ids, "s-first")
	checkDeltaParity(t, tbl, true, "cold")
	for i := 0; i <= deltaLogBatches; i++ {
		touchEveryShard(t, tbl, ids[:100+i], fmt.Sprintf("s%03d", i))
	}
	before := tbl.CacheStats().PartialCatchUps
	checkDeltaParity(t, tbl, true, "past the window")
	if n := tbl.CacheStats().PartialCatchUps - before; n != 0 {
		t.Fatalf("%d catch-ups from bases older than the log", n)
	}
	touchEveryShard(t, tbl, ids, "s-last")
	before = tbl.CacheStats().PartialCatchUps
	checkDeltaParity(t, tbl, true, "one batch later")
	if n := tbl.CacheStats().PartialCatchUps - before; n != uint64(numShards*len(deltaQueries)) {
		t.Fatalf("%d catch-ups one batch after a rescan, want %d", n, numShards*len(deltaQueries))
	}
}

// TestDeltaLogBounds pins the log's own bookkeeping: coverage, the batch
// window sliding, and a batch that overflows the row bound emptying it.
func TestDeltaLogBounds(t *testing.T) {
	var l deltaLog
	apply := func(touched ...int) {
		epoch := l.from + uint64(len(l.batches))
		l.begin(100 + int(epoch))
		for _, r := range touched {
			l.touch(r)
		}
		l.commit()
	}
	apply(3, 500) // 500 is not a stored row yet: skipped
	apply(4, 3)
	rows, touched, ok := l.since(0, 2)
	if !ok || rows != 100 || !reflect.DeepEqual(touched, []int32{3, 4, 3}) {
		t.Fatalf("since(0, 2) = %d, %v, %v", rows, touched, ok)
	}
	if rows, touched, ok = l.since(1, 2); !ok || rows != 101 || !reflect.DeepEqual(touched, []int32{4, 3}) {
		t.Fatalf("since(1, 2) = %d, %v, %v", rows, touched, ok)
	}
	if _, _, ok = l.since(1, 3); ok {
		t.Fatal("since covers an epoch the log never saw")
	}
	for i := 0; i < deltaLogBatches; i++ {
		apply(1)
	}
	if _, _, ok = l.since(0, l.from+uint64(len(l.batches))); ok {
		t.Fatal("the batch window did not slide")
	}
	if _, _, ok = l.since(l.from, l.from+uint64(len(l.batches))); !ok {
		t.Fatal("the window's oldest batch is not covered")
	}
	big := make([]int, deltaLogRows+1)
	apply(big...)
	epoch := l.from + uint64(len(l.batches))
	if len(l.batches) != 0 || len(l.touched) != 0 {
		t.Fatalf("overflowing batch left %d batches, %d rows", len(l.batches), len(l.touched))
	}
	if _, _, ok = l.since(epoch-1, epoch); ok {
		t.Fatal("the overflowing batch is covered")
	}
	apply(2)
	if _, touched, ok = l.since(epoch, epoch+1); !ok || !reflect.DeepEqual(touched, []int32{2}) {
		t.Fatalf("after overflow: since = %v, %v", touched, ok)
	}
}

// TestDeltaRecoverFallback: a reopened durable table starts with an empty
// partial cache, so its first query scans; catch-ups resume after the
// next batch and stay exact against fresh scans.
func TestDeltaRecoverFallback(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SegmentRows = 13
	db1, tbl1 := metaTableStorage(t, cfg)
	prog := randomDeltaProgram(rand.New(rand.NewSource(6)), 300)
	deltaScript(t, tbl1, true, prog)
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := db2.Table("t")
	checkDeltaParity(t, tbl2, true, "recovered")
	if n := tbl2.CacheStats().PartialCatchUps; n != 0 {
		t.Fatalf("%d catch-ups on a freshly recovered table", n)
	}
	deltaScript(t, tbl2, true, randomDeltaProgram(rand.New(rand.NewSource(7)), 300))
	if tbl2.CacheStats().PartialCatchUps == 0 {
		t.Fatal("no catch-up after recovery")
	}
}

// TestDeltaConcurrentCatchUp runs queries concurrently over one stale base
// while Writer batches apply (run it under -race): catch-ups share the
// frozen base read-only, and the end state matches fresh scans.
func TestDeltaConcurrentCatchUp(t *testing.T) {
	_, tbl := metaTable(t)
	var ids []string
	for i := 0; i < 300; i++ {
		ids = append(ids, fmt.Sprintf("e%04d", i))
	}
	touchEveryShard(t, tbl, ids, "s-first")
	where := mustPredicate(t, "grp = 'g0'")
	if _, err := tbl.Sample("v", where); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				s, err := tbl.Sample("v", where)
				if err != nil {
					errs <- err
					return
				}
				if s.N() < last {
					errs <- fmt.Errorf("observations went backwards: %d -> %d", last, s.N())
					return
				}
				last = s.N()
			}
		}()
	}
	for i := 0; i < 40; i++ {
		touchEveryShard(t, tbl, append(ids[i:i+50], fmt.Sprintf("n%04d", i)), fmt.Sprintf("s%03d", i))
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkDeltaParity(t, tbl, true, "after concurrent catch-ups")
	if tbl.CacheStats().PartialCatchUps == 0 {
		t.Fatal("no catch-up ran")
	}
}

// FuzzDeltaPartialParity replays arbitrary deltaScript programs: whatever
// the interleaving of writes, flushes, compactions and queries, a
// caught-up partial must equal a cold scan of its shard.
func FuzzDeltaPartialParity(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(randomDeltaProgram(rand.New(rand.NewSource(seed)), 120))
	}
	f.Add([]byte{0, 7, 3, 7, 5, 7, 6, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 400 {
			prog = prog[:400]
		}
		_, tbl := metaTable(t)
		deltaScript(t, tbl, true, prog)
	})
}

// TestDeltaOverBudgetDropsBase: a stale partial whose caught-up successor
// does not fit the partial budget leaves the cache, instead of lingering
// as a base that falls further behind with every batch.
func TestDeltaOverBudgetDropsBase(t *testing.T) {
	c := newScanCache(defaultProgramCacheEntries, 1<<20)
	k := partialKey{attr: "v", shard: 3}
	var p freqstats.Partial
	p.AppendRow(1, "e0", 1, []int32{0})
	p.Freeze()
	c.storePartial(k, 1, &p)
	if base, at, hit := c.lookupPartial(k, 2); base != &p || at != 1 || hit {
		t.Fatalf("stale lookup = %p, %d, %v; want the epoch-1 base, not a hit", base, at, hit)
	}
	if c.acceptsPartial(k, 2<<20) {
		t.Fatal("an over-budget partial was accepted")
	}
	if base, _, _ := c.lookupPartial(k, 2); base != nil {
		t.Fatal("the stale base outlived its rejected successor")
	}
}
