package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// saveToString / loadFromString are tiny snapshot plumbing helpers shared
// with the cross-backend suites.
func saveToString(t *testing.T, db *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func loadFromString(t *testing.T, db *DB, snap string) {
	t.Helper()
	if err := db.Load(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := toyDB(t, true)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := Open(WithEstimators(src.ests...))
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}

	// The restored database answers queries identically.
	want, err := src.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if got.Observed != want.Observed {
		t.Errorf("observed: %g vs %g", got.Observed, want.Observed)
	}
	for name, w := range want.Estimates {
		g, ok := got.Estimates[name]
		if !ok {
			t.Errorf("estimator %q missing after restore", name)
			continue
		}
		if g.Estimated != w.Estimated {
			t.Errorf("%s: %g vs %g", name, g.Estimated, w.Estimated)
		}
	}

	// Lineage survived: same observation counts.
	srcTbl, _ := src.Table("companies")
	dstTbl, _ := dst.Table("companies")
	if srcTbl.NumObservations() != dstTbl.NumObservations() {
		t.Errorf("observations: %d vs %d", srcTbl.NumObservations(), dstTbl.NumObservations())
	}
	if len(srcTbl.Sources()) != len(dstTbl.Sources()) {
		t.Errorf("sources: %v vs %v", srcTbl.Sources(), dstTbl.Sources())
	}
}

func TestSaveLoadPreservesValueKinds(t *testing.T) {
	var db DB
	tbl, err := db.CreateTable("t", Schema{
		{Name: "s", Type: TypeString},
		{Name: "f", Type: TypeFloat},
		{Name: "b", Type: TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("e1", "src", map[string]sqlparse.Value{
		"s": sqlparse.StringValue("hello"),
		"f": sqlparse.Number(3.14),
		"b": sqlparse.BoolValue(true),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("e2", "src", map[string]sqlparse.Value{
		"s": sqlparse.Null(),
		"f": sqlparse.Number(1),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dst DB
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	dt, _ := dst.Table("t")
	recs := dt.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if v := recs[0].Attrs["s"]; v.Kind != sqlparse.ValueString || v.Str != "hello" {
		t.Errorf("string attr = %+v", v)
	}
	if v := recs[0].Attrs["b"]; v.Kind != sqlparse.ValueBool || !v.Bool {
		t.Errorf("bool attr = %+v", v)
	}
	if v := recs[1].Attrs["s"]; v.Kind != sqlparse.ValueNull {
		t.Errorf("null attr = %+v", v)
	}
}

// TestLoadErrors is the table-driven error-path suite for snapshot
// restore: every malformed input must be rejected with a telling error
// and leave the database empty.
func TestLoadErrors(t *testing.T) {
	// A structurally valid snapshot, used to derive the truncation cases.
	valid := func(t *testing.T) string {
		t.Helper()
		var buf bytes.Buffer
		if err := toyDB(t, false).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := []struct {
		name   string
		input  func(t *testing.T) string
		errSub string
	}{
		{
			name:   "garbage",
			input:  func(*testing.T) string { return "not json" },
			errSub: "decoding snapshot",
		},
		{
			name:   "empty input",
			input:  func(*testing.T) string { return "" },
			errSub: "decoding snapshot",
		},
		{
			name:   "truncated JSON",
			input:  func(t *testing.T) string { s := valid(t); return s[:len(s)/2] },
			errSub: "decoding snapshot",
		},
		{
			name:   "corrupt JSON tail",
			input:  func(t *testing.T) string { s := valid(t); return s[:len(s)-3] + "#!" },
			errSub: "decoding snapshot",
		},
		{
			name: "newer major version",
			input: func(*testing.T) string {
				return fmt.Sprintf(`{"version": %d, "tables": []}`, snapshotVersion+1)
			},
			errSub: "newer than supported",
		},
		{
			name:   "far future version",
			input:  func(*testing.T) string { return `{"version": 99, "tables": []}` },
			errSub: "newer than supported",
		},
		{
			name: "unknown column type",
			input: func(*testing.T) string {
				return `{"version":1,"tables":[{"name":"t","schema":[{"name":"v","type":"quaternion"}]}]}`
			},
			errSub: "column type",
		},
		{
			name: "record without sources",
			input: func(*testing.T) string {
				return `{"version":1,"tables":[{"name":"t","schema":[{"name":"v","type":"float"}],"records":[{"entity":"e","attrs":{},"sources":[]}]}]}`
			},
			errSub: "no sources",
		},
		{
			name: "number value without num field",
			input: func(*testing.T) string {
				return `{"version":1,"tables":[{"name":"t","schema":[{"name":"v","type":"float"}],"records":[{"entity":"e","attrs":{"v":{"kind":"number"}},"sources":["s"]}]}]}`
			},
			errSub: "number without num",
		},
		{
			name: "unknown value kind",
			input: func(*testing.T) string {
				return `{"version":1,"tables":[{"name":"t","schema":[{"name":"v","type":"float"}],"records":[{"entity":"e","attrs":{"v":{"kind":"complex"}},"sources":["s"]}]}]}`
			},
			errSub: "unknown",
		},
		{
			name: "value type mismatching schema",
			input: func(*testing.T) string {
				return `{"version":1,"tables":[{"name":"t","schema":[{"name":"v","type":"float"}],"records":[{"entity":"e","attrs":{"v":{"kind":"string","str":"x"}},"sources":["s"]}]}]}`
			},
			errSub: "expects FLOAT",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var db DB
			err := db.Load(strings.NewReader(tc.input(t)))
			if err == nil {
				t.Fatal("malformed snapshot accepted")
			}
			if !strings.Contains(err.Error(), tc.errSub) {
				t.Errorf("error %q does not mention %q", err, tc.errSub)
			}
			if n := len(db.TableNames()); n != 0 {
				t.Errorf("failed load left %d tables behind", n)
			}
		})
	}
}

// TestSaveDrainsStaging: a snapshot taken while staging is non-empty must
// include the staged observations (Save runs the Flush barrier first) and
// round-trip them exactly.
func TestSaveDrainsStaging(t *testing.T) {
	var db DB
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	attrs := func(id string, v float64) map[string]sqlparse.Value {
		return map[string]sqlparse.Value{"name": sqlparse.StringValue(id), "v": sqlparse.Number(v)}
	}
	// Half inserted, half staged-but-unflushed at Save time.
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(fmt.Sprintf("i%d", i), "src-a", attrs(fmt.Sprintf("i%d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Append(fmt.Sprintf("a%d", i), "src-b", attrs(fmt.Sprintf("a%d", i), float64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.StagedRows() == 0 {
		t.Fatal("precondition: nothing staged")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := tbl.StagedRows(); got != 0 {
		t.Errorf("staging not drained by Save: %d rows", got)
	}

	var dst DB
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	dt, ok := dst.Table("t")
	if !ok {
		t.Fatal("table missing after restore")
	}
	if got, want := dt.NumRecords(), 20; got != want {
		t.Fatalf("restored records = %d, want %d (staged rows lost?)", got, want)
	}
	if got, want := dt.NumObservations(), tbl.NumObservations(); got != want {
		t.Errorf("restored observations = %d, want %d", got, want)
	}
	ws, err := tbl.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := dt.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Fingerprint() != gs.Fingerprint() {
		t.Errorf("restored sample differs: %x vs %x", gs.Fingerprint(), ws.Fingerprint())
	}
}

// TestSnapshotCrossBackendCompat is the table-driven cross-compatibility
// suite: a JSON snapshot written by any backend must load into any other
// backend — including the seed/in-memory engine's snapshots into the
// disk store — answer queries identically, and serialize back to
// bitwise-identical snapshot bytes.
func TestSnapshotCrossBackendCompat(t *testing.T) {
	diskCfg := func(t *testing.T, segRows int, disableMmap bool) StorageConfig {
		return StorageConfig{Backend: BackendDisk, Dir: t.TempDir(), SegmentRows: segRows, DisableMmap: disableMmap}
	}
	cases := []struct {
		name string
		from func(t *testing.T) StorageConfig
		to   func(t *testing.T) StorageConfig
	}{
		{
			name: "mem to disk",
			from: func(*testing.T) StorageConfig { return StorageConfig{Backend: BackendMemory} },
			to:   func(t *testing.T) StorageConfig { return diskCfg(t, 2, false) },
		},
		{
			name: "mem to disk (ReadAt fallback)",
			from: func(*testing.T) StorageConfig { return StorageConfig{Backend: BackendMemory} },
			to:   func(t *testing.T) StorageConfig { return diskCfg(t, 2, true) },
		},
		{
			name: "disk to mem",
			from: func(t *testing.T) StorageConfig { return diskCfg(t, 2, false) },
			to:   func(*testing.T) StorageConfig { return StorageConfig{Backend: BackendMemory} },
		},
		{
			name: "disk to disk",
			from: func(t *testing.T) StorageConfig { return diskCfg(t, 3, false) },
			to:   func(t *testing.T) StorageConfig { return diskCfg(t, 7, true) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := Open(WithBackend(tc.from(t)))
			t.Cleanup(func() { src.Close() })
			buildSnapshotFixture(t, src)
			snap := saveToString(t, src)

			dst := Open(WithBackend(tc.to(t)))
			t.Cleanup(func() { dst.Close() })
			loadFromString(t, dst, snap)

			// Identical query answers...
			for _, q := range []string{
				"SELECT SUM(v) FROM t",
				"SELECT COUNT(*) FROM t WHERE v >= 3",
				"SELECT AVG(v) FROM t GROUP BY grp",
			} {
				want, err := src.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dst.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if want.Observed != got.Observed {
					t.Fatalf("%q observed %g vs %g", q, got.Observed, want.Observed)
				}
			}
			st, _ := src.Table("t")
			dt, _ := dst.Table("t")
			ws, err := st.Sample("v", nil)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := dt.Sample("v", nil)
			if err != nil {
				t.Fatal(err)
			}
			if ws.Fingerprint() != gs.Fingerprint() {
				t.Fatalf("sample fingerprints differ: %x vs %x", gs.Fingerprint(), ws.Fingerprint())
			}

			// ...and a bitwise-identical re-serialization: the snapshot
			// format carries no backend fingerprint at all.
			if snap2 := saveToString(t, dst); snap2 != snap {
				t.Fatalf("round-tripped snapshot differs (%d vs %d bytes)", len(snap2), len(snap))
			}
		})
	}
}

// buildSnapshotFixture fills a DB with a small mixed-type, multi-source
// table (NULLs, missing columns, shared entities) for snapshot tests.
func buildSnapshotFixture(t *testing.T, db *DB) {
	t.Helper()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "grp", Type: TypeString},
		{Name: "flag", Type: TypeBool},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("e%02d", i)
		attrs := map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i % 7)),
			"grp":  sqlparse.StringValue(fmt.Sprintf("g%d", i%3)),
		}
		switch i % 4 {
		case 0:
			attrs["flag"] = sqlparse.BoolValue(i%2 == 0)
		case 1:
			attrs["flag"] = sqlparse.Null()
		}
		for s := 0; s <= i%4; s++ {
			if err := tbl.Insert(id, fmt.Sprintf("s%d", s), attrs); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestLoadCollisionLeavesDBUnchanged(t *testing.T) {
	db := toyDB(t, false)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into the same DB collides on "companies".
	if err := db.Load(&buf); err == nil {
		t.Fatal("collision not reported")
	}
	// The original table still answers.
	res, err := db.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 13000 {
		t.Errorf("observed after failed load = %g", res.Observed)
	}
}

func TestMedianThroughSQL(t *testing.T) {
	db := toyDB(t, true)
	res, err := db.Query("SELECT MEDIAN(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	// Observed median over {300, 1000, 2000, 10000} = 1500.
	if res.Observed != 1500 {
		t.Errorf("observed median = %g, want 1500", res.Observed)
	}
	med, ok := res.Estimates["median"]
	if !ok || !med.Valid {
		t.Fatalf("median estimate missing: %+v", res.Estimates)
	}
	if med.Estimated <= 0 {
		t.Errorf("estimated median = %g", med.Estimated)
	}
}
