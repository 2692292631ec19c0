package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// sectorDB builds a table with two sectors for GROUP BY tests.
func sectorDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithEstimators(core.Naive{}, core.Bucket{}))
	tbl, err := db.CreateTable("companies", Schema{
		{Name: "name", Type: TypeString},
		{Name: "sector", Type: TypeString},
		{Name: "employees", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id, sector, src string, emp float64) {
		t.Helper()
		if err := tbl.Insert(id, src, map[string]sqlparse.Value{
			"name":      sqlparse.StringValue(id),
			"sector":    sqlparse.StringValue(sector),
			"employees": sqlparse.Number(emp),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Tech: A, B, D (the toy example); Retail: R1, R2.
	ins("A", "tech", "s1", 1000)
	ins("B", "tech", "s1", 2000)
	ins("D", "tech", "s1", 10000)
	ins("B", "tech", "s2", 2000)
	ins("D", "tech", "s2", 10000)
	ins("D", "tech", "s3", 10000)
	ins("D", "tech", "s4", 10000)
	ins("R1", "retail", "s1", 500)
	ins("R1", "retail", "s2", 500)
	ins("R2", "retail", "s3", 700)
	ins("R2", "retail", "s4", 700)
	return db
}

func TestGroupByParses(t *testing.T) {
	q, err := sqlparse.Parse("SELECT SUM(employees) FROM companies GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != "sector" {
		t.Errorf("GroupBy = %q", q.GroupBy)
	}
	want := "SELECT SUM(employees) FROM companies GROUP BY sector"
	if q.String() != want {
		t.Errorf("String() = %q", q.String())
	}
	if _, err := sqlparse.Parse("SELECT SUM(x) FROM t GROUP BY"); err == nil {
		t.Error("missing group column not reported")
	}
	if _, err := sqlparse.Parse("SELECT SUM(x) FROM t GROUP sector"); err == nil {
		t.Error("missing BY not reported")
	}
}

func TestGroupByExecution(t *testing.T) {
	db := sectorDB(t)
	res, err := db.Query("SELECT SUM(employees) FROM companies GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(res.Groups))
	}
	// Groups sorted by key: retail before tech.
	retail := res.Groups[0]
	tech := res.Groups[1]
	if retail.Key.Str != "retail" || tech.Key.Str != "tech" {
		t.Fatalf("group order: %v, %v", retail.Key, tech.Key)
	}
	if retail.Result.Observed != 1200 {
		t.Errorf("retail observed = %g, want 1200", retail.Result.Observed)
	}
	if tech.Result.Observed != 13000 {
		t.Errorf("tech observed = %g, want 13000", tech.Result.Observed)
	}
	// The tech group is the toy example: bucket estimate 14500.
	if est := tech.Result.Estimates["bucket"]; est.Estimated != 14500 {
		t.Errorf("tech bucket = %g, want 14500", est.Estimated)
	}
	// The retail group is fully covered (every record twice): Delta 0.
	if est := retail.Result.Estimates["naive"]; est.Delta != 0 {
		t.Errorf("retail naive Delta = %g, want 0", est.Delta)
	}
	// Each group carries its own warnings (few sources here).
	if len(tech.Result.Warnings) == 0 {
		t.Error("tech group has no warnings")
	}
}

func TestGroupByWithWhere(t *testing.T) {
	db := sectorDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM companies WHERE employees < 5000 GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	if res.Groups[0].Result.Observed != 2 { // retail: R1, R2
		t.Errorf("retail count = %g", res.Groups[0].Result.Observed)
	}
	if res.Groups[1].Result.Observed != 2 { // tech: A, B (D filtered out)
		t.Errorf("tech count = %g", res.Groups[1].Result.Observed)
	}
}

func TestGroupByErrors(t *testing.T) {
	db := sectorDB(t)
	if _, err := db.Query("SELECT SUM(employees) FROM companies GROUP BY ghost"); err == nil {
		t.Error("unknown group column not reported")
	}
	if _, err := db.Query("SELECT SUM(name) FROM companies GROUP BY sector"); err == nil {
		t.Error("non-numeric aggregate not reported in grouped query")
	}
}

func TestGroupByEmptyPredicate(t *testing.T) {
	db := sectorDB(t)
	res, err := db.Query("SELECT SUM(employees) FROM companies WHERE employees > 1e9 GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Errorf("groups = %d, want 0", len(res.Groups))
	}
	if len(res.Warnings) == 0 {
		t.Error("no warning for empty grouped result")
	}
}

func TestGroupByMinMaxMedian(t *testing.T) {
	db := sectorDB(t)
	res, err := db.Query("SELECT MAX(employees) FROM companies GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	retail, tech := res.Groups[0].Result, res.Groups[1].Result
	if retail.Observed != 700 || tech.Observed != 10000 {
		t.Errorf("group maxima: retail %g, tech %g", retail.Observed, tech.Observed)
	}
	if retail.Extreme == nil || tech.Extreme == nil {
		t.Fatal("grouped MAX missing extreme analysis")
	}
	// Retail entities are each observed twice: the max is trusted.
	if !retail.Extreme.Trusted {
		t.Errorf("retail max not trusted: %+v", retail.Extreme)
	}

	res, err = db.Query("SELECT MEDIAN(employees) FROM companies GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Result.Observed != 600 { // median of {500, 700}
		t.Errorf("retail median = %g, want 600", res.Groups[0].Result.Observed)
	}
	if _, ok := res.Groups[1].Result.Estimates["median"]; !ok {
		t.Error("grouped MEDIAN missing estimate")
	}
}

// TestGroupByNumericKeysOrdered: numeric group keys are grouped by exact
// value and come out in ascending numeric order — negative keys, keys
// that differ past the sixth decimal and huge magnitudes included. -0 and
// 0 are one group (keyed 0), and every NaN lands in one group after +Inf.
func TestGroupByNumericKeysOrdered(t *testing.T) {
	var db DB
	tbl, err := db.CreateTable("t", Schema{
		{Name: "bucket", Type: TypeFloat},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []float64{30, 10, 20, 10, 30, -10, -5, 1, 0.1234561, 0.1234562, 2.5,
		math.Copysign(0, -1), 0, math.NaN(), 1e300, math.Inf(1), -math.NaN()}
	for i, k := range keys {
		if err := tbl.Insert(fmt.Sprintf("e%02d", i), "s1", map[string]sqlparse.Value{
			"bucket": sqlparse.Number(k),
			"v":      sqlparse.Number(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT COUNT(*) FROM t GROUP BY bucket")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		key float64
		n   int
	}{{-10, 1}, {-5, 1}, {0, 2}, {0.1234561, 1}, {0.1234562, 1}, {1, 1}, {2.5, 1},
		{10, 2}, {20, 1}, {30, 2}, {1e300, 1}, {math.Inf(1), 1}, {math.NaN(), 2}}
	if len(res.Groups) != len(want) {
		got := make([]float64, len(res.Groups))
		for i, g := range res.Groups {
			got[i] = g.Key.Num
		}
		t.Fatalf("group keys %v, want %d groups", got, len(want))
	}
	for i, w := range want {
		g := res.Groups[i]
		sameKey := math.Float64bits(g.Key.Num) == math.Float64bits(w.key) ||
			math.IsNaN(g.Key.Num) && math.IsNaN(w.key)
		if !sameKey {
			t.Errorf("group %d key = %g, want %g", i, g.Key.Num, w.key)
		}
		if n := g.Result.Sample.C(); n != w.n {
			t.Errorf("group %d (key %g) holds %d entities, want %d", i, w.key, n, w.n)
		}
	}
}
