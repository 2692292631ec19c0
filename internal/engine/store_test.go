package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/sqlparse"
)

// TestConflictCheckSameEverywhere re-reports one row from a second
// source with a conflicting (or equal) value and requires the recorded
// Flush error to be the same whether the stored row lives in a sealed
// segment (boxed check), in a disk store's tail or in a memory store
// (typed check).
func TestConflictCheckSameEverywhere(t *testing.T) {
	schema := Schema{{Name: "f", Type: TypeFloat}, {Name: "s", Type: TypeString}, {Name: "b", Type: TypeBool}}
	num, str, boolean, null := sqlparse.Number, sqlparse.StringValue, sqlparse.BoolValue, sqlparse.Null()
	type attrs = map[string]sqlparse.Value
	cases := []struct {
		name          string
		first, second attrs
		conflict      bool
	}{
		{"float vs float", attrs{"f": num(1.5)}, attrs{"f": num(2.5)}, true},
		{"0 vs -0", attrs{"f": num(0)}, attrs{"f": num(math.Copysign(0, -1))}, false},
		{"NaN vs NaN", attrs{"f": num(math.NaN())}, attrs{"f": num(math.NaN())}, true},
		{"string vs string", attrs{"s": str("a")}, attrs{"s": str("b")}, true},
		{"bool vs bool", attrs{"b": boolean(true)}, attrs{"b": boolean(false)}, true},
		{"NULL vs value", attrs{"f": null}, attrs{"f": num(1)}, true},
		{"value vs NULL", attrs{"s": str("a")}, attrs{"s": null}, true},
		{"missing stored column", attrs{"f": num(1)}, attrs{"f": num(1), "s": str("x")}, false},
		{"missing staged column", attrs{"f": num(1), "s": str("x")}, attrs{"f": num(1)}, false},
	}
	const entity = "target"
	si := shardOf(hashEntity(entity))
	var fillers []string
	for i := 0; len(fillers) < 4; i++ {
		if id := fmt.Sprintf("filler-%d", i); shardOf(hashEntity(id)) == si {
			fillers = append(fillers, id)
		}
	}
	// report builds a table on cfg and stores entity with first, either
	// before three fillers of its shard (so a disk store seals it with
	// them) or, when last is set, after four (so it stays in the tail).
	// It then re-reports entity with second and returns the Flush error
	// and whether the stored row is sealed.
	report := func(cfg StorageConfig, first, second attrs, last bool) (error, bool) {
		tbl, err := NewTableWithStorage("t", schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		ids := append([]string{entity}, fillers[:3]...)
		if last {
			ids = append(slices.Clone(fillers), entity)
		}
		for _, id := range ids {
			a := attrs{"f": num(7)}
			if id == entity {
				a = first
			}
			if err := tbl.Insert(id, "src1", a); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Append(entity, "src2", second); err != nil {
			t.Fatal(err)
		}
		err = tbl.Flush()
		sh := tbl.shards[si]
		row, ok := sh.store.Lookup(entity)
		if !ok {
			t.Fatal("target entity not stored")
		}
		return err, row < sh.store.sealed
	}
	disk := StorageConfig{Backend: BackendDisk, Dir: t.TempDir(), SegmentRows: 4, CompactSegments: -1}
	mem := StorageConfig{Backend: BackendMemory}
	for _, tc := range cases {
		sealedErr, sealed := report(disk, tc.first, tc.second, false)
		tailErr, tailSealed := report(disk, tc.first, tc.second, true)
		memErr, _ := report(mem, tc.first, tc.second, false)
		if !sealed || tailSealed {
			t.Fatalf("%s: stored row sealed %v on the sealed table and %v on the tail table", tc.name, sealed, tailSealed)
		}
		if (memErr != nil) != tc.conflict {
			t.Errorf("%s: memory table Flush error %v, want conflict %v", tc.name, memErr, tc.conflict)
		}
		for _, got := range []struct {
			where string
			err   error
		}{{"sealed", sealedErr}, {"tail", tailErr}} {
			if fmt.Sprint(got.err) != fmt.Sprint(memErr) || errors.Is(got.err, ErrConflict) != errors.Is(memErr, ErrConflict) {
				t.Errorf("%s: %s row Flush error %v, memory table %v", tc.name, got.where, got.err, memErr)
			}
		}
	}
}

// TestMemoryStoreNeverSeals: a memory table past the disk backend's
// default seal threshold in every shard still serves one extent per
// column from its tail and has no storage directory.
func TestMemoryStoreNeverSeals(t *testing.T) {
	tbl, err := NewTableWithStorage("m", Schema{{Name: "v", Type: TypeFloat}, {Name: "s", Type: TypeString}},
		StorageConfig{Backend: BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	w := tbl.NewWriter()
	const n = numShards*defaultSegmentRows + 1
	for i := 0; i < n; i++ {
		if err := w.AppendRow(fmt.Sprintf("e%d", i), "src", []sqlparse.Value{sqlparse.Number(float64(i)), sqlparse.StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tbl.storageDir != "" {
		t.Fatalf("memory table has storage directory %q", tbl.storageDir)
	}
	rows := 0
	for si, sh := range tbl.shards {
		sh.mu.RLock()
		v := sh.store.View()
		if sh.store.dir != "" || len(sh.store.segs) != 0 || sh.store.sealed != 0 {
			t.Errorf("shard %d: dir %q, %d segments, %d sealed rows", si, sh.store.dir, len(sh.store.segs), sh.store.sealed)
		}
		for ci, c := range v.cols {
			if len(c.exts) != 1 {
				t.Errorf("shard %d column %d: %d extents, want 1", si, ci, len(c.exts))
			}
		}
		rows += v.rows
		sh.mu.RUnlock()
	}
	if rows != n {
		t.Fatalf("%d rows stored, want %d", rows, n)
	}
}

// TestDiskBackendNeedsDir: the disk backend without a directory is
// rejected by table creation, snapshot loading and recovery, and none of
// them touches the working directory — not even a durable table's
// RemoveAll of its would-be <Dir>/<name>.
func TestDiskBackendNeedsDir(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("obs", 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join("obs", "keep.txt")
	if err := os.WriteFile(keep, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := Schema{{Name: "v", Type: TypeFloat}}
	for _, cfg := range []StorageConfig{{Backend: BackendDisk}, {Backend: BackendDisk, Durable: true}} {
		if tbl, err := NewTableWithStorage("obs", schema, cfg); err == nil {
			tbl.Close()
			t.Errorf("durable %v: NewTableWithStorage accepted the disk backend without Dir", cfg.Durable)
		}
		db := Open(WithBackend(cfg))
		if _, err := db.CreateTable("obs", schema); err == nil {
			t.Errorf("durable %v: CreateTable accepted the disk backend without Dir", cfg.Durable)
		}
		if err := db.Load(bytes.NewReader([]byte(`{"version": 1, "tables": []}`))); err == nil {
			t.Errorf("durable %v: Load accepted the disk backend without Dir", cfg.Durable)
		}
		if _, err := db.RecoverTables(); err == nil {
			t.Errorf("durable %v: RecoverTables accepted the disk backend without Dir", cfg.Durable)
		}
		db.Close()
	}
	if _, err := NewTableWithStorage("obs", schema, StorageConfig{Backend: Backend(9)}); err == nil {
		t.Error("NewTableWithStorage accepted an unknown backend")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("obs/keep.txt is gone: %v", err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("working directory holds %d entries, want only obs/", len(entries))
	}
}
