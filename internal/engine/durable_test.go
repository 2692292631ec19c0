package engine

// Durable disk tier: recovery round trips, segment adoption, snapshot
// integration and compaction parity. The crash-by-SIGKILL harness lives
// in crash_test.go; the WAL corruption suite in wal_corrupt_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// durableCfg is the durable disk configuration the suite uses: tiny
// segments so shards cross seal boundaries, per-record WAL fsync so the
// tests exercise the sync path too.
func durableCfg(dir string) StorageConfig {
	return StorageConfig{
		Backend:     BackendDisk,
		Dir:         dir,
		Durable:     true,
		SegmentRows: 32,
		WALSync:     1,
	}
}

// TestDurableRecoverRoundTrip closes a durable database cleanly and
// re-opens it via RecoverTables: the recovered query surface must be
// bitwise-identical to an in-memory reference (sample fingerprints,
// attribution, every estimator's numbers).
func TestDurableRecoverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	obs := metaWorkload(rng, 40, 8, 500)
	ref := memRef(t, obs)

	dir := t.TempDir()
	vrng := rand.New(rand.NewSource(42))
	db1 := streamVariantStorage(t, vrng, obs, true, durableCfg(dir))
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(durableCfg(dir)))
	t.Cleanup(func() { db2.Close() })
	names, err := db2.RecoverTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "t" {
		t.Fatalf("recovered %v, want [t]", names)
	}
	querySurface(t, ref, db2, "durable recover round trip")
}

// TestDurableStagedRowsSurviveClose appends rows through the batched
// path WITHOUT a flush barrier and closes: the staged rows were
// WAL-acknowledged at Append time, so recovery must replay them.
func TestDurableStagedRowsSurviveClose(t *testing.T) {
	dir := t.TempDir()
	db1 := Open(WithBackend(durableCfg(dir)))
	tbl, err := db1.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 50
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("e%03d", i)
		err := tbl.Append(id, "s0", map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// No Flush: with the default 256-row batch every row is still staged.
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(durableCfg(dir)))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, ok := db2.Table("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	if got := rt.NumRecords(); got != rows {
		t.Fatalf("recovered %d records, want %d", got, rows)
	}
	res, err := db2.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(rows*(rows-1)) / 2; res.Observed != want {
		t.Fatalf("recovered SUM(v) = %g, want %g", res.Observed, want)
	}
}

// TestDurableInsertWALFailureNotAcked: when the WAL append of a durable
// Insert fails, the Insert returns the error and applies nothing — the
// row is neither visible to queries nor recovered after a restart — and
// the shard's log rotates, so the next Insert succeeds and survives.
func TestDurableInsertWALFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1 := Open(WithBackend(cfg))
	tbl, err := db1.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(v float64) map[string]sqlparse.Value { return map[string]sqlparse.Value{"v": sqlparse.Number(v)} }
	if err := tbl.Insert("first", "s0", row(1)); err != nil {
		t.Fatal(err)
	}
	si, _ := tbl.shardIndexFor("first")
	var sameShard []string // two more entities of the same shard
	for i := 0; len(sameShard) < 2; i++ {
		if id := fmt.Sprintf("e%03d", i); func() bool { s, _ := tbl.shardIndexFor(id); return s == si }() {
			sameShard = append(sameShard, id)
		}
	}
	failed, next := sameShard[0], sameShard[1]

	// Swap the shard's active generation for a read-only handle on the
	// same file: the next append's write fails, and so does the rollback
	// truncate, which marks the generation for rotation.
	w := tbl.wal.shard(si)
	w.mu.Lock()
	ro, err := os.Open(w.f.Name())
	if err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	rw := w.f
	w.f = ro
	w.mu.Unlock()
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	if err := tbl.Insert(failed, "s0", row(10)); err == nil {
		t.Fatal("Insert acknowledged a row whose WAL append failed")
	}
	if hasEntity(tbl, failed) {
		t.Error("row of the failed Insert was applied")
	}
	res, err := db1.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 1 {
		t.Errorf("SUM(v) after the failed Insert = %g, want 1", res.Observed)
	}
	if err := tbl.Flush(); err != nil {
		t.Errorf("Flush reports an error Insert already returned: %v", err)
	}

	if err := tbl.Insert(next, "s0", row(100)); err != nil {
		t.Fatalf("Insert after the rotation: %v", err)
	}
	if res, err = db1.Query("SELECT SUM(v) FROM t"); err != nil {
		t.Fatal(err)
	}
	if res.Observed != 101 {
		t.Errorf("SUM(v) after the next Insert = %g, want 101", res.Observed)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, ok := db2.Table("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	if hasEntity(rt, failed) || !hasEntity(rt, "first") || !hasEntity(rt, next) {
		t.Errorf("recovered entities: first %v, %s %v (failed, want false), %s %v",
			hasEntity(rt, "first"), failed, hasEntity(rt, failed), next, hasEntity(rt, next))
	}
}

// TestDurableInsertReplaysInApplyOrder: an Insert applies after the rows
// staged before it on its shard, and its WAL record follows theirs, so a
// replay in log order rebuilds exactly the state the live table served.
// Here a staged Append reports x first; the later Insert conflicts, gets
// the conflict as its error, and the first value is what both the live
// and the recovered table answer.
func TestDurableInsertReplaysInApplyOrder(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1 := Open(WithBackend(cfg))
	tbl, err := db1.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(v float64) map[string]sqlparse.Value { return map[string]sqlparse.Value{"v": sqlparse.Number(v)} }
	if err := tbl.Append("x", "s0", row(1)); err != nil {
		t.Fatal(err)
	}
	insErr := tbl.Insert("x", "s1", row(2))
	flushErr := tbl.Flush()

	type state struct {
		sum     float64
		records []Record
		obs     int
	}
	read := func(db *DB, tb *Table) state {
		t.Helper()
		res, err := db.Query("SELECT SUM(v) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return state{res.Observed, tb.Records(), tb.ObservationCount("x")}
	}
	live := read(db1, tbl)
	// No Close: the process "crashed" with everything in the WAL.

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, ok := db2.Table("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	replayErr := rt.Flush()
	got := read(db2, rt)
	if got.sum != live.sum || got.obs != live.obs || !reflect.DeepEqual(got.records, live.records) {
		t.Fatalf("recovered state differs from the live one:\n live      %+v\n recovered %+v", live, got)
	}
	if live.sum != 1 || live.obs != 2 {
		t.Errorf("live SUM(v) = %g over %d observations, want the first value 1 over 2", live.sum, live.obs)
	}
	if !errors.Is(insErr, ErrConflict) || flushErr != nil {
		t.Errorf("Insert error %v, Flush error %v; want the conflict from Insert and nothing left for Flush", insErr, flushErr)
	}
	if n := countConflicts(replayErr); n != 1 {
		t.Errorf("first Flush after recovery reports %d conflicts (%v), want the replayed 1", n, replayErr)
	}
}

// breakActiveWAL swaps shard si's active WAL generation for a read-only
// handle on the same file: the next append's write fails, and so does the
// rollback truncate, which marks the generation for rotation.
func breakActiveWAL(t *testing.T, tbl *Table, si int) {
	t.Helper()
	w := tbl.wal.shard(si)
	w.mu.Lock()
	ro, err := os.Open(w.f.Name())
	if err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	rw := w.f
	w.f = ro
	w.mu.Unlock()
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAppendWALFailureNotAcked: when the WAL append of a per-row
// Append or AppendRow fails, the call returns the error and the row is
// unstaged — never applied, never recovered — while rows staged before it
// stay staged; the log rotates, so the next Append succeeds and survives.
func TestDurableAppendWALFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1 := Open(WithBackend(cfg))
	tbl, err := db1.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(v float64) map[string]sqlparse.Value { return map[string]sqlparse.Value{"v": sqlparse.Number(v)} }
	if err := tbl.Append("first", "s0", row(1)); err != nil {
		t.Fatal(err)
	}
	si, _ := tbl.shardIndexFor("first")
	var sameShard []string // three more entities of the same shard
	for i := 0; len(sameShard) < 3; i++ {
		if id := fmt.Sprintf("e%03d", i); func() bool { s, _ := tbl.shardIndexFor(id); return s == si }() {
			sameShard = append(sameShard, id)
		}
	}
	failed, failedRow, next := sameShard[0], sameShard[1], sameShard[2]

	breakActiveWAL(t, tbl, si)
	if err := tbl.Append(failed, "s0", row(10)); err == nil {
		t.Fatal("Append acknowledged a row whose WAL append failed")
	}
	if got := tbl.StagedRows(); got != 1 {
		t.Errorf("StagedRows after the failed Append = %d, want 1", got)
	}
	if err := tbl.Append(next, "s0", row(100)); err != nil {
		t.Fatalf("Append after the rotation: %v", err)
	}
	breakActiveWAL(t, tbl, si)
	if err := tbl.AppendRow(failedRow, "s0", []sqlparse.Value{sqlparse.Number(1000)}); err == nil {
		t.Fatal("AppendRow acknowledged a row whose WAL append failed")
	}
	if err := tbl.Flush(); err != nil {
		t.Errorf("Flush reports an error the staging calls already returned: %v", err)
	}
	if hasEntity(tbl, failed) || hasEntity(tbl, failedRow) {
		t.Error("row of a failed staging call was applied")
	}
	res, err := db1.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 101 {
		t.Errorf("SUM(v) = %g, want 101", res.Observed)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, ok := db2.Table("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	for id, want := range map[string]bool{"first": true, next: true, failed: false, failedRow: false} {
		if hasEntity(rt, id) != want {
			t.Errorf("recovered %s: present %v, want %v", id, !want, want)
		}
	}
}

// TestDurableWriterWALFailureNotAcked: when the WAL append of a Writer
// push fails, the Append (or Flush) that pushed returns the error and the
// pushed chunk is dropped — not staged, not applied, not recovered — while
// the log rotates, so the Writer's next push succeeds and survives.
func TestDurableWriterWALFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1 := Open(WithBackend(cfg))
	tbl, err := db1.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(v float64) map[string]sqlparse.Value { return map[string]sqlparse.Value{"v": sqlparse.Number(v)} }
	if err := tbl.Append("first", "s0", row(1)); err != nil {
		t.Fatal(err)
	}
	w := tbl.NewWriter()
	si, _ := tbl.shardIndexFor("first")
	var sameShard []string // two full pushes plus two rows, all on shard si
	for i := 0; len(sameShard) < 2*w.push+2; i++ {
		if id := fmt.Sprintf("e%05d", i); func() bool { s, _ := tbl.shardIndexFor(id); return s == si }() {
			sameShard = append(sameShard, id)
		}
	}
	dropped, kept := sameShard[:w.push], sameShard[w.push:2*w.push]
	flushDropped, reopen := sameShard[2*w.push], sameShard[2*w.push+1]
	staged := tbl.StagedRows()

	for _, id := range dropped[:len(dropped)-1] {
		if err := w.Append(id, "s0", row(10)); err != nil {
			t.Fatal(err)
		}
	}
	breakActiveWAL(t, tbl, si)
	if err := w.Append(dropped[len(dropped)-1], "s0", row(10)); err == nil {
		t.Fatal("Writer.Append acknowledged a push whose WAL append failed")
	}
	if got := tbl.StagedRows(); got != staged {
		t.Errorf("StagedRows after the failed push = %d, want %d", got, staged)
	}
	for _, id := range kept {
		if err := w.AppendRow(id, "s0", []sqlparse.Value{sqlparse.Number(100)}); err != nil {
			t.Fatalf("push after the rotation: %v", err)
		}
	}
	if err := w.Append(flushDropped, "s0", row(1000)); err != nil {
		t.Fatal(err)
	}
	// The inline drain of the last push checkpointed the log; a per-row
	// Append (v=0, so SUM is unchanged) opens a new generation to break.
	if err := tbl.Append(reopen, "s0", row(0)); err != nil {
		t.Fatal(err)
	}
	breakActiveWAL(t, tbl, si)
	if err := w.Flush(); err == nil {
		t.Fatal("Writer.Flush acknowledged a push whose WAL append failed")
	}
	if err := tbl.Flush(); err != nil {
		t.Errorf("Flush reports an error the pushing calls already returned: %v", err)
	}
	for _, id := range append([]string{flushDropped}, dropped...) {
		if hasEntity(tbl, id) {
			t.Fatalf("row %s of a failed push was applied", id)
		}
	}
	res, err := db1.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 100*float64(len(kept)); res.Observed != want {
		t.Errorf("SUM(v) = %g, want %g", res.Observed, want)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, ok := db2.Table("t")
	if !ok {
		t.Fatal("table t not recovered")
	}
	want := map[string]bool{"first": true, reopen: true, flushDropped: false}
	for _, id := range kept {
		want[id] = true
	}
	for _, id := range dropped {
		want[id] = false
	}
	for id, present := range want {
		if hasEntity(rt, id) != present {
			t.Errorf("recovered %s: present %v, want %v", id, !present, present)
		}
	}
}

// TestDurableLoadersReturnWALFailure: a bulk load whose Writer push hits
// a failed WAL append returns that error instead of counting it as a
// value conflict, and the rows of the failed push are not applied.
func TestDurableLoadersReturnWALFailure(t *testing.T) {
	loaders := map[string]func(*Table, []freqstats.Observation) (int, error){
		"LoadObservations": func(tbl *Table, obs []freqstats.Observation) (int, error) {
			return LoadObservations(tbl, obs, "v", "name")
		},
		"StreamObservations": func(tbl *Table, obs []freqstats.Observation) (int, error) {
			return StreamObservations(tbl, obs, "v", "name", 0, 0)
		},
	}
	for name, load := range loaders {
		t.Run(name, func(t *testing.T) {
			db := Open(WithBackend(durableCfg(t.TempDir())))
			t.Cleanup(func() { db.Close() })
			tbl, err := db.CreateTable("t", Schema{{Name: "name", Type: TypeString}, {Name: "v", Type: TypeFloat}})
			if err != nil {
				t.Fatal(err)
			}
			// A per-row append opens shard si's WAL generation to break.
			if err := tbl.AppendRow("first", "s0", []sqlparse.Value{sqlparse.StringValue("first"), sqlparse.Number(1)}); err != nil {
				t.Fatal(err)
			}
			si, _ := tbl.shardIndexFor("first")
			lost := ""
			for i := 0; lost == ""; i++ {
				if id := fmt.Sprintf("e%03d", i); func() bool { s, _ := tbl.shardIndexFor(id); return s == si }() {
					lost = id
				}
			}
			breakActiveWAL(t, tbl, si)
			conflicts, err := load(tbl, []freqstats.Observation{{EntityID: lost, Value: 5, Source: "s0"}})
			if err == nil {
				t.Fatalf("load acknowledged a push whose WAL append failed (%d conflicts)", conflicts)
			}
			if conflicts != 0 {
				t.Errorf("conflicts = %d, want 0", conflicts)
			}
			if err := tbl.Flush(); err != nil {
				t.Fatal(err)
			}
			if hasEntity(tbl, lost) || !hasEntity(tbl, "first") {
				t.Errorf("after the failed load: %s present %v (want false), first present %v (want true)",
					lost, hasEntity(tbl, lost), hasEntity(tbl, "first"))
			}
		})
	}
}

// segFileInfo captures the identity of every sealed segment file under a
// table directory: name, size and modification time.
func segFileInfo(t *testing.T, tableDir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(tableDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".seg") {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		out[filepath.Base(path)] = fmt.Sprintf("%d@%d", fi.Size(), fi.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDurableAdoptionNoReinsert proves recovery adopts sealed segment
// files by reference: after a clean close, RecoverTables must leave
// every segment file bit-for-bit alone (same name, size and mtime — a
// re-insert path would rewrite them).
func TestDurableAdoptionNoReinsert(t *testing.T) {
	dir := t.TempDir()
	db1 := Open(WithBackend(durableCfg(dir)))
	tbl, err := db1.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400 // >> SegmentRows x numShards: every shard seals
	for i := 0; i < rows; i++ {
		id := fmt.Sprintf("e%04d", i)
		err := tbl.Insert(id, "s0", map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(dir, "t")
	before := segFileInfo(t, tableDir)
	if len(before) == 0 {
		t.Fatal("no sealed segment files; fixture too small")
	}

	// ModTime granularity guard: make any rewrite observable.
	time.Sleep(10 * time.Millisecond)

	db2 := Open(WithBackend(durableCfg(dir)))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, _ := db2.Table("t")
	if got := rt.NumRecords(); got != rows {
		t.Fatalf("recovered %d records, want %d", got, rows)
	}
	after := segFileInfo(t, tableDir)
	if len(after) != len(before) {
		t.Fatalf("segment file set changed: %d files before, %d after", len(before), len(after))
	}
	for name, id := range before {
		if after[name] != id {
			t.Fatalf("segment %s was rewritten by recovery: %s -> %s", name, id, after[name])
		}
	}
}

// TestSnapshotLoadAdoptsSegments covers the Load fast path: a snapshot
// saved from a durable database, loaded into a fresh DB over the SAME
// storage directory, adopts the sealed segments in place instead of
// re-inserting records — and still answers identically. The same
// snapshot loaded into a DIFFERENT (empty) directory takes the
// record-replay fallback and must also answer identically.
func TestSnapshotLoadAdoptsSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	obs := metaWorkload(rng, 30, 6, 400)
	ref := memRef(t, obs)

	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1, tbl := metaTableStorage(t, cfg)
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := db1.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(dir, "t")
	before := segFileInfo(t, tableDir)
	if len(before) == 0 {
		t.Fatal("no sealed segment files; fixture too small")
	}
	time.Sleep(10 * time.Millisecond)

	adopt := Open(WithBackend(cfg))
	t.Cleanup(func() { adopt.Close() })
	if err := adopt.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := segFileInfo(t, tableDir)
	for name, id := range before {
		if after[name] != id {
			t.Fatalf("adopting Load rewrote segment %s: %s -> %s", name, id, after[name])
		}
	}
	querySurface(t, ref, adopt, "snapshot load (segment adoption)")

	// Fallback: same snapshot, fresh directory — record replay through the
	// bulk writer, same answers.
	fresh := Open(WithBackend(durableCfg(t.TempDir())))
	t.Cleanup(func() { fresh.Close() })
	if err := fresh.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	querySurface(t, ref, fresh, "snapshot load (record-replay fallback)")
}

// TestCompactionParity: a disk store that compacts aggressively during
// ingest must be query-surface indistinguishable from the in-memory
// reference, and an explicitly Compact()ed store must end with one
// segment per shard and identical answers.
func TestCompactionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// Enough entities that every 16th-shard slice crosses several 8-row
	// seal boundaries (rows per shard ~= entities/16).
	obs := metaWorkload(rng, 300, 8, 1200)
	ref := memRef(t, obs)

	// Background compaction: tiny segments + threshold 2 forces many
	// merge cycles while the workload streams in.
	bg := StorageConfig{
		Backend:         BackendDisk,
		Dir:             t.TempDir(),
		SegmentRows:     8,
		CompactSegments: 2,
	}
	vrng := rand.New(rand.NewSource(48))
	got := streamVariantStorage(t, vrng, obs, true, bg)
	querySurface(t, ref, got, "disk with background compaction")

	// Explicit compaction: build with compaction disabled, then Compact;
	// every shard must collapse to a single (word-aligned) extent with an
	// unchanged surface and unchanged epochs (cache exactness).
	off := StorageConfig{
		Backend:         BackendDisk,
		Dir:             t.TempDir(),
		SegmentRows:     8,
		CompactSegments: -1,
	}
	db, tbl := metaTableStorage(t, off)
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	var epochs [numShards]uint64
	multi := 0
	for si, sh := range tbl.shards {
		sh.mu.RLock()
		epochs[si] = sh.store.Epoch()
		if ds, ok := sh.store.(*diskStore); ok && len(ds.segs) > 1 {
			multi++
		}
		sh.mu.RUnlock()
	}
	if multi == 0 {
		t.Fatal("no shard has multiple segments; fixture too small")
	}
	if err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	for si, sh := range tbl.shards {
		sh.mu.RLock()
		ds := sh.store.(*diskStore)
		if len(ds.segs) > 1 {
			t.Errorf("shard %d still has %d segments after Compact", si, len(ds.segs))
		}
		if ds.tailRows() != 0 {
			t.Errorf("shard %d still has %d tail rows after Compact", si, ds.tailRows())
		}
		if got := sh.store.Epoch(); got != epochs[si] {
			t.Errorf("shard %d epoch moved %d -> %d: compaction must not bump", si, epochs[si], got)
		}
		sh.mu.RUnlock()
	}
	querySurface(t, ref, db, "disk explicitly compacted")
}

// TestCompactionDurableRecover compacts a durable table, recovers it,
// and checks both the merged layout and the surface survive.
func TestCompactionDurableRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	obs := metaWorkload(rng, 250, 6, 1000)
	ref := memRef(t, obs)

	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SegmentRows = 8
	cfg.CompactSegments = -1
	db1, tbl := metaTableStorage(t, cfg)
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	rt, _ := db2.Table("t")
	for si, sh := range rt.shards {
		sh.mu.RLock()
		if ds, ok := sh.store.(*diskStore); ok && len(ds.segs) > 1 {
			t.Errorf("shard %d recovered %d segments, want <= 1", si, len(ds.segs))
		}
		sh.mu.RUnlock()
	}
	querySurface(t, ref, db2, "compacted durable recover")
}

// TestLoadFailureCleansOwnDirs: a failing snapshot Load must remove the
// segment directories it created (satellite: no orphaned files from a
// partial Load) while never touching a pre-existing adopted directory.
func TestLoadFailureCleansOwnDirs(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db := Open(WithBackend(cfg))
	t.Cleanup(func() { db.Close() })

	// Two tables; the second one's records are corrupt, so Load fails
	// after the first table was fully staged on disk.
	snap := `{"version":1,"tables":[
	 {"name":"a","schema":[{"name":"v","type":"float"}],
	  "records":[{"entity":"e1","attrs":{"v":{"kind":"number","num":1}},"sources":["s1"]}]},
	 {"name":"b","schema":[{"name":"v","type":"float"}],
	  "records":[{"entity":"e2","attrs":{"v":{"kind":"number"}},"sources":["s1"]}]}
	]}`
	if err := db.Load(strings.NewReader(snap)); err == nil {
		t.Fatal("Load of corrupt snapshot succeeded")
	}
	for _, name := range []string{"a", "b"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("failed Load left directory %q behind (stat err: %v)", name, err)
		}
	}
	if len(db.TableNames()) != 0 {
		t.Errorf("failed Load registered tables: %v", db.TableNames())
	}
}

// TestRecoverSweepsOrphans: files in a table directory that no manifest,
// checkpoint or live segment references (crashed seal/compaction debris,
// temp files) are removed by recovery; WAL generations are left alone.
func TestRecoverSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	db1 := Open(WithBackend(cfg))
	tbl, err := db1.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("e%03d", i)
		if err := tbl.Insert(id, "s0", map[string]sqlparse.Value{"v": sqlparse.Number(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	tableDir := filepath.Join(dir, "t")
	orphanSeg := filepath.Join(tableDir, "shard00-seg99999.seg")
	orphanTmp := filepath.Join(tableDir, "shard03.ckpt.123.tmp")
	for _, p := range []string{orphanSeg, orphanTmp} {
		if err := os.WriteFile(p, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	db2 := Open(WithBackend(cfg))
	t.Cleanup(func() { db2.Close() })
	if _, err := db2.RecoverTables(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{orphanSeg, orphanTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived recovery (stat err: %v)", filepath.Base(p), err)
		}
	}
	rt, _ := db2.Table("t")
	if got := rt.NumRecords(); got != 100 {
		t.Fatalf("recovered %d records, want 100", got)
	}
}
