package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// diskTestTable builds a disk-backed table with a mixed-type schema and a
// tiny segment size.
func diskTestTable(t *testing.T, segRows int, disableMmap bool) *Table {
	t.Helper()
	tbl, err := NewTableWithStorage("dt", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "ok", Type: TypeBool},
		{Name: "extra", Type: TypeFloat},
	}, diskVariantCfg(t, segRows, disableMmap))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func fillMixedRows(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + "-" + strings.Repeat("x", i%3)
		attrs := map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
			"ok":   sqlparse.BoolValue(i%2 == 0),
		}
		switch i % 3 {
		case 0:
			attrs["extra"] = sqlparse.Null()
		case 1:
			// never provided
		default:
			attrs["extra"] = sqlparse.Number(float64(i) / 2)
		}
		if err := tbl.Insert(id+itoa(i), "src", attrs); err != nil {
			t.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestDiskStoreSealsSegments: inserting past the segment size must leave
// sealed segment files on disk, and every value — sealed or tail — must
// read back exactly.
func TestDiskStoreSealsSegments(t *testing.T) {
	tbl := diskTestTable(t, 4, false)
	fillMixedRows(t, tbl, 200)

	sealed := 0
	for _, sh := range tbl.shards {
		ds := sh.store
		sealed += ds.sealed
		if ds.sealed > 0 && len(ds.segs) == 0 {
			t.Fatal("sealed rows without segments")
		}
		for _, seg := range ds.segs {
			if _, err := os.Stat(seg.path); err != nil {
				t.Fatalf("segment file missing: %v", err)
			}
		}
	}
	if sealed == 0 {
		t.Fatal("no shard sealed any segment at segRows=4 with 200 rows")
	}

	// The user-visible rows must match an identical in-memory table.
	mem, err := NewTableWithStorage("mt", tbl.Schema(), StorageConfig{Backend: BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	fillMixedRows(t, mem, 200)
	wantRecs, gotRecs := mem.Records(), tbl.Records()
	if len(wantRecs) != len(gotRecs) {
		t.Fatalf("records: %d vs %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if wantRecs[i].EntityID != gotRecs[i].EntityID {
			t.Fatalf("row %d entity %q vs %q", i, gotRecs[i].EntityID, wantRecs[i].EntityID)
		}
		for k, wv := range wantRecs[i].Attrs {
			gv, ok := gotRecs[i].Attrs[k]
			if !ok || gv != wv {
				t.Fatalf("row %d attr %q: %v vs %v (present=%v)", i, k, gv, wv, ok)
			}
		}
		if len(wantRecs[i].Attrs) != len(gotRecs[i].Attrs) {
			t.Fatalf("row %d attr count differs", i)
		}
	}
}

// TestDiskMmapVsFallbackParity: the mmap'd and ReadAt-loaded serving
// paths must produce identical samples.
func TestDiskMmapVsFallbackParity(t *testing.T) {
	a := diskTestTable(t, 8, false)
	b := diskTestTable(t, 8, true)
	fillMixedRows(t, a, 150)
	fillMixedRows(t, b, 150)

	for _, pred := range []string{"", "v >= 40", "NOT (v < 40) AND v < 100", "name LIKE 'a%'"} {
		var expr sqlparse.Expr
		if pred != "" {
			expr = mustPredicate(t, pred)
		}
		sa, err := a.Sample("v", expr)
		if err != nil {
			t.Fatalf("mmap sample %q: %v", pred, err)
		}
		sb, err := b.Sample("v", expr)
		if err != nil {
			t.Fatalf("fallback sample %q: %v", pred, err)
		}
		if sa.Fingerprint() != sb.Fingerprint() {
			t.Fatalf("%q: mmap and fallback samples differ", pred)
		}
	}
}

// TestDiskSegmentFormatErrors: corrupted segment files must be rejected
// by openSegment with a telling error (the tail keeps serving, so a
// failed seal is non-fatal — this test targets the parser directly).
func TestDiskSegmentFormatErrors(t *testing.T) {
	schema := Schema{{Name: "v", Type: TypeFloat}, {Name: "s", Type: TypeString}}
	dict := newStringDict()
	tail := newTailCols(schema, dict)
	// Row 0 provides both cells; row 1 a NULL float and no string at all.
	var c obsChunk
	c.init(schema)
	c.cols[0].setCell(0, sqlparse.Number(1.5), true, dict)
	c.cols[1].setCell(0, sqlparse.StringValue("hello"), true, dict)
	c.cols[0].setCell(1, sqlparse.Null(), true, dict)
	c.cols[1].setCell(1, sqlparse.Value{}, false, dict)
	for row := 0; row < 2; row++ {
		for ci := range tail {
			appendStagedCell(&tail[ci], &c.cols[ci], row, row)
		}
	}
	dicts, err := planSegDicts(schema, tail, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := buildSegmentBytes(schema, tail, 2, dicts)

	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// The pristine file parses on both serving paths.
	for _, useMmap := range []bool{mmapAvailable, false} {
		seg, err := openSegment(write("good.seg", raw), schema, 0, useMmap)
		if err != nil {
			t.Fatalf("pristine segment rejected (mmap=%v): %v", useMmap, err)
		}
		if seg.nrows != 2 {
			t.Fatalf("nrows = %d", seg.nrows)
		}
		if got := seg.cols[0].floats[0]; got != 1.5 {
			t.Fatalf("float cell = %g", got)
		}
		if got := seg.cols[1].str(0); got != "hello" {
			t.Fatalf("string cell = %q", got)
		}
		if v, ok := seg.cols[0].value(TypeFloat, 1); !ok || v.Kind != sqlparse.ValueNull {
			t.Fatalf("NULL cell = %v (ok=%v)", v, ok)
		}
		if _, ok := seg.cols[1].value(TypeString, 1); ok {
			t.Fatal("missing cell read back as provided")
		}
		if seg.mapped {
			if err := munmapFile(seg.data); err != nil {
				t.Fatal(err)
			}
		}
	}

	corrupt := func(name string, mutate func(b []byte) []byte) string {
		b := append([]byte(nil), raw...)
		return write(name, mutate(b))
	}
	cases := []struct {
		name   string
		path   string
		errSub string
	}{
		{"bad magic", corrupt("magic.seg", func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"bad endian tag", corrupt("endian.seg", func(b []byte) []byte { b[8] ^= 0xFF; return b }), "byte order"},
		{"truncated", corrupt("trunc.seg", func(b []byte) []byte { return b[:len(b)/2] }), "out of bounds"},
		{"wrong schema arity", corrupt("arity.seg", func(b []byte) []byte { return b }), "columns"},
	}
	for _, tc := range cases {
		wantSchema := schema
		if tc.name == "wrong schema arity" {
			wantSchema = schema[:1]
		}
		if _, err := openSegment(tc.path, wantSchema, 0, false); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.errSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errSub)
		}
	}
}

// TestDiskBackendMetadata: backend identity is reported through the
// table and DB surfaces (uuquery -cachestats prints it).
func TestDiskBackendMetadata(t *testing.T) {
	tbl := diskTestTable(t, 64, false)
	if got := tbl.StorageBackend(); got != BackendDisk {
		t.Fatalf("table backend = %v", got)
	}
	db := Open(WithBackend(StorageConfig{Backend: BackendDisk, Dir: t.TempDir()}))
	t.Cleanup(func() { db.Close() })
	if got := db.StorageBackend(); got != BackendDisk {
		t.Fatalf("db backend = %v", got)
	}
	if got := (&DB{}).StorageBackend(); got != resolveStorage(StorageConfig{}).Backend {
		t.Fatalf("zero db backend = %v", got)
	}
	if _, err := ParseBackend("disk"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBackend("floppy"); err == nil {
		t.Fatal("ParseBackend accepted nonsense")
	}
}

// TestDiskTableCloseIdempotent: Close twice is a no-op and releases
// mappings.
func TestDiskTableCloseIdempotent(t *testing.T) {
	tbl := diskTestTable(t, 4, false)
	fillMixedRows(t, tbl, 50)
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapForEachRange: the ranged iterator must agree with the full
// iterator filtered to the range, across word boundaries.
func TestBitmapForEachRange(t *testing.T) {
	b := newBitmap(300)
	for i := 0; i < 300; i += 7 {
		b.set(i)
	}
	for _, r := range [][2]int{{0, 300}, {0, 64}, {63, 65}, {64, 128}, {1, 299}, {130, 131}, {128, 192}, {250, 300}, {10, 10}} {
		var want, got []int
		b.forEach(func(i int) error {
			if i >= r[0] && i < r[1] {
				want = append(want, i)
			}
			return nil
		})
		b.forEachRange(r[0], r[1], func(i int) error {
			got = append(got, i)
			return nil
		})
		if len(want) != len(got) {
			t.Fatalf("range %v: %d vs %d bits", r, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("range %v: bit %d: %d vs %d", r, i, got[i], want[i])
			}
		}
	}
}
