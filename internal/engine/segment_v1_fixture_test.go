package engine

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// TestSegmentV1FixtureRoundTrip reads a v1 segment file committed to
// testdata — written by the pre-dictionary format with offset+blob string
// columns — and pins that the v2-era reader still serves it: cells read
// back exactly, the string column is transcoded at open into codes over a
// strictly sorted dictionary (so it takes the word kernels), and compiled
// string predicates over it agree with per-row expectations. This is the
// compatibility contract: old segment files on disk keep working, read
// through the v2 representation, until compaction rewrites them as v2.
func TestSegmentV1FixtureRoundTrip(t *testing.T) {
	var tag [8]byte
	hostOrder.PutUint64(tag[:], 1)
	if tag[0] != 1 {
		t.Skip("fixture was written little-endian; this host is big-endian")
	}

	schema := Schema{
		{Name: "species", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "flag", Type: TypeBool},
	}
	// Logical rows the fixture was generated from. provided=false rows are
	// fully undefined; NULLs are provided-but-invalid.
	type row struct {
		provided bool
		species  sqlparse.Value
		v        sqlparse.Value
		flag     sqlparse.Value
	}
	want := []row{
		{true, sqlparse.StringValue("walrus"), sqlparse.Number(1.5), sqlparse.BoolValue(true)},
		{true, sqlparse.StringValue(""), sqlparse.Number(-2), sqlparse.BoolValue(false)},
		{true, sqlparse.Null(), sqlparse.Null(), sqlparse.Null()},
		{true, sqlparse.StringValue("aardvark"), sqlparse.Number(7), sqlparse.BoolValue(true)},
		{false, sqlparse.Value{}, sqlparse.Value{}, sqlparse.Value{}},
		{true, sqlparse.StringValue("walrus"), sqlparse.Number(3.25), sqlparse.BoolValue(false)},
	}

	path := filepath.Join("testdata", "segment_v1_string.seg")
	for _, useMmap := range []bool{mmapAvailable, false} {
		seg, err := openSegment(path, schema, 0, useMmap)
		if err != nil {
			t.Fatalf("openSegment (mmap=%v): %v", useMmap, err)
		}
		if seg.nrows != len(want) {
			t.Fatalf("nrows = %d, want %d", seg.nrows, len(want))
		}
		sp := &seg.cols[0]
		if len(sp.codes) != seg.nrows {
			t.Fatalf("v1 string column transcoded to %d codes, want %d", len(sp.codes), seg.nrows)
		}
		for i := 1; i < len(sp.dict); i++ {
			if sp.dict[i] <= sp.dict[i-1] {
				t.Fatalf("transcoded dictionary not strictly sorted: %q", sp.dict)
			}
		}
		for i, c := range sp.codes {
			if int(c) >= len(sp.dict) {
				t.Fatalf("row %d: code %d out of dictionary range %d", i, c, len(sp.dict))
			}
		}
		for i, w := range want {
			for ci, wv := range []sqlparse.Value{w.species, w.v, w.flag} {
				gv, ok := seg.cols[ci].value(schema[ci].Type, i)
				if ok != w.provided {
					t.Fatalf("row %d col %s: provided=%v, want %v", i, schema[ci].Name, ok, w.provided)
				}
				if ok && gv != wv {
					t.Fatalf("row %d col %s: %v, want %v", i, schema[ci].Name, gv, wv)
				}
			}
		}

		// Compiled string predicates over the transcoded v1 extent must
		// produce the selections the logical rows imply.
		// Row 4 is undefined, so the selection excludes it (a selected
		// undefined row is an ErrUnknownColumn error by contract).
		sv := &storeView{rows: seg.nrows, cols: []colView{{typ: TypeString, exts: []colExtent{seg.cols[0]}}}}
		sel := newBitmap(seg.nrows)
		for i, w := range want {
			if w.provided {
				sel.set(i)
			}
		}
		for _, tc := range []struct {
			sql  string
			rows []int
		}{
			{"species = 'walrus'", []int{0, 5}},
			{"species != 'walrus'", []int{1, 3}},
			{"species BETWEEN 'a' AND 'b'", []int{3}},
			{"species NOT BETWEEN 'a' AND 'b'", []int{0, 1, 2, 5}}, // NULL row kept by NOT
			{"species IN ('', 'aardvark')", []int{1, 3}},
			{"species LIKE 'wal%'", []int{0, 5}},
			{"species < 'b'", []int{1, 3}},
		} {
			expr := mustPredicate(t, tc.sql)
			prog, err := compileFilter(Schema{{Name: "species", Type: TypeString}},
				map[string]int{"species": 0}, expr)
			if err != nil {
				t.Fatalf("%q: %v", tc.sql, err)
			}
			out := newBitmap(seg.nrows)
			if err := prog.eval(sv, sel, out); err != nil {
				t.Fatalf("%q: %v", tc.sql, err)
			}
			var got []int
			out.forEach(func(i int) error { got = append(got, i); return nil })
			if len(got) != len(tc.rows) {
				t.Fatalf("%q: rows %v, want %v", tc.sql, got, tc.rows)
			}
			for i := range got {
				if got[i] != tc.rows[i] {
					t.Fatalf("%q: rows %v, want %v", tc.sql, got, tc.rows)
				}
			}
		}

		if seg.mapped {
			if err := munmapFile(seg.data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSegmentV1CorruptOffsetsRejected patches the string offsets of a copy
// of the v1 fixture — one offset jumping past the blob and back, and the
// final offset running past the blob — and requires openSegment to fail
// with a segment error, mmap on and off, instead of handing out an extent
// whose first cell read would slice out of range.
func TestSegmentV1CorruptOffsetsRejected(t *testing.T) {
	var tag [8]byte
	hostOrder.PutUint64(tag[:], 1)
	if tag[0] != 1 {
		t.Skip("fixture was written little-endian; this host is big-endian")
	}
	schema := Schema{
		{Name: "species", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "flag", Type: TypeBool},
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "segment_v1_string.seg"))
	if err != nil {
		t.Fatal(err)
	}
	nrows := int(binary.LittleEndian.Uint64(raw[16:24]))
	// Column 0's TOC entry follows the 32-byte header prefix: kind, then
	// dataOff (the n+1 uint32 offsets), then auxOff and auxLen (the blob).
	dataOff := int(binary.LittleEndian.Uint64(raw[40:48]))
	auxLen := binary.LittleEndian.Uint64(raw[64:72])
	for _, tc := range []struct {
		name string
		row  int
		off  uint32
	}{
		{"non-monotone", 1, 0xFFFF},
		{"past-blob", nrows, uint32(auxLen) + 1},
	} {
		patched := append([]byte(nil), raw...)
		hostOrder.PutUint32(patched[dataOff+4*tc.row:], tc.off)
		path := filepath.Join(t.TempDir(), "corrupt.seg")
		if err := os.WriteFile(path, patched, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, useMmap := range []bool{mmapAvailable, false} {
			seg, err := openSegment(path, schema, 0, useMmap)
			if err == nil {
				t.Fatalf("%s (mmap=%v): openSegment accepted corrupt offsets", tc.name, useMmap)
			}
			if seg != nil || !strings.HasPrefix(err.Error(), "segment ") {
				t.Fatalf("%s (mmap=%v): got segment %v, error %q; want nil and a segment error", tc.name, useMmap, seg, err)
			}
		}
	}
}
