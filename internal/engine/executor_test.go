package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/sqlparse"
)

// toyDB builds the paper's Appendix F toy example as a database.
func toyDB(t *testing.T, withS5 bool) *DB {
	t.Helper()
	db := Open(WithEstimators(core.Naive{}, core.Frequency{}, core.Bucket{}))
	tbl, err := db.CreateTable("companies", Schema{
		{Name: "name", Type: TypeString},
		{Name: "employees", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id, src string, emp float64) {
		t.Helper()
		if err := tbl.Insert(id, src, map[string]sqlparse.Value{
			"name":      sqlparse.StringValue(id),
			"employees": sqlparse.Number(emp),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ins("A", "s1", 1000)
	ins("B", "s1", 2000)
	ins("D", "s1", 10000)
	ins("B", "s2", 2000)
	ins("D", "s2", 10000)
	ins("D", "s3", 10000)
	ins("D", "s4", 10000)
	if withS5 {
		ins("A", "s5", 1000)
		ins("B", "s5", 2000)
		ins("E", "s5", 300)
	}
	return db
}

func TestQuerySumToyExample(t *testing.T) {
	db := toyDB(t, false)
	res, err := db.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 13000 {
		t.Errorf("observed = %g, want 13000", res.Observed)
	}
	bucket, ok := res.Estimates["bucket"]
	if !ok {
		t.Fatal("no bucket estimate")
	}
	if delta := bucket.Estimated - 14500; delta > 1e-9 || delta < -1e-9 {
		t.Errorf("bucket estimate = %g, want 14500 (Table 2)", bucket.Estimated)
	}
	naive := res.Estimates["naive"]
	if naive.Estimated < 16000 || naive.Estimated > 16020 {
		t.Errorf("naive estimate = %g, want ~16009", naive.Estimated)
	}
}

func TestQueryCountAvg(t *testing.T) {
	db := toyDB(t, true)
	res, err := db.Query("SELECT COUNT(*) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 4 {
		t.Errorf("count observed = %g, want 4", res.Observed)
	}
	if e := res.Estimates["naive"]; e.Estimated < 4 {
		t.Errorf("count estimate %g below observed", e.Estimated)
	}

	if res.CountInterval == nil || !res.CountInterval.Valid {
		t.Error("COUNT query missing the Chao87 interval")
	} else if res.CountInterval.Lo < 4 || res.CountInterval.Hi < res.CountInterval.Lo {
		t.Errorf("count interval [%g, %g] malformed", res.CountInterval.Lo, res.CountInterval.Hi)
	}

	res, err = db.Query("SELECT AVG(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 13300.0/4 {
		t.Errorf("avg observed = %g", res.Observed)
	}
	// Naive AVG is uncorrected.
	if e := res.Estimates["naive"]; e.Estimated != res.Observed {
		t.Errorf("naive AVG corrected: %g vs %g", e.Estimated, res.Observed)
	}
}

func TestQueryMinMax(t *testing.T) {
	db := toyDB(t, true)
	res, err := db.Query("SELECT MAX(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Extreme == nil {
		t.Fatal("no extreme analysis")
	}
	if res.Observed != 10000 {
		t.Errorf("max observed = %g", res.Observed)
	}

	res, err = db.Query("SELECT MIN(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 300 {
		t.Errorf("min observed = %g", res.Observed)
	}
	// E is a fresh singleton: the minimum must not be trusted.
	if res.Extreme.Trusted {
		t.Errorf("sparse minimum trusted: %+v", res.Extreme)
	}
}

func TestQueryWithPredicate(t *testing.T) {
	db := toyDB(t, true)
	res, err := db.Query("SELECT SUM(employees) FROM companies WHERE employees < 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 3300 {
		t.Errorf("filtered observed = %g, want 3300", res.Observed)
	}
}

func TestQueryErrors(t *testing.T) {
	db := toyDB(t, false)
	if _, err := db.Query("SELECT SUM(employees) FROM ghosts"); err == nil {
		t.Error("unknown table not reported")
	}
	if _, err := db.Query("SELECT SUM(ghost_col) FROM companies"); err == nil {
		t.Error("unknown column not reported")
	}
	if _, err := db.Query("garbage"); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := db.Query("SELECT SUM(name) FROM companies"); err == nil {
		t.Error("non-numeric aggregate not reported")
	}
}

func TestDropTable(t *testing.T) {
	db := toyDB(t, false)
	if err := db.DropTable("ghosts"); err == nil {
		t.Error("unknown table not reported")
	}
	if err := db.DropTable("companies"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT SUM(employees) FROM companies"); err == nil {
		t.Error("dropped table still answers")
	}
	// The name can be reused.
	if _, err := db.CreateTable("companies", companySchema()); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	var db DB
	if _, err := db.CreateTable("t", companySchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", companySchema()); err == nil {
		t.Error("duplicate table not reported")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Errorf("names = %v", names)
	}
	if _, ok := db.Table("t"); !ok {
		t.Error("lookup failed")
	}
}

func TestWarningsLowCoverageAndFewSources(t *testing.T) {
	db := toyDB(t, false)
	res, err := db.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	var sawSources bool
	for _, w := range res.Warnings {
		if strings.Contains(w, "data source") {
			sawSources = true
		}
	}
	if !sawSources {
		t.Errorf("expected few-sources warning, got %v", res.Warnings)
	}

	// Empty predicate result.
	res, err = db.Query("SELECT SUM(employees) FROM companies WHERE employees > 1e9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "no records") {
		t.Errorf("expected no-records warning, got %v", res.Warnings)
	}
}

func TestBestPrefersBucketThenMC(t *testing.T) {
	// Balanced sources: bucket preferred.
	g, err := sim.NewGroundTruth(randx.New(1), sim.Config{N: 80, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(2), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 10, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(WithEstimators(core.Bucket{}, core.MonteCarlo{Runs: 1, Seed: 1}))
	tbl, err := db.CreateTable("items", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range st.Observations {
		if err := tbl.Insert(obs.EntityID, obs.Source, map[string]sqlparse.Value{"v": sqlparse.Number(obs.Value)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT SUM(v) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	_, name, ok := res.Best()
	if !ok || name != "bucket" {
		t.Errorf("Best picked %q (ok=%v), want bucket for balanced sources", name, ok)
	}

	// A dominating streaker flips the recommendation to MC.
	streaked := sim.InjectStreaker(st, g, 50, "streaker")
	db2 := Open(WithEstimators(core.Bucket{}, core.MonteCarlo{Runs: 1, Seed: 1}))
	tbl2, err := db2.CreateTable("items", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range streaked.Observations[:160] {
		if err := tbl2.Insert(obs.EntityID, obs.Source, map[string]sqlparse.Value{"v": sqlparse.Number(obs.Value)}); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := db2.Query("SELECT SUM(v) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	_, name2, ok := res2.Best()
	if !ok || name2 != "mc" {
		sizes := res2.Sample.SourceSizes()
		t.Errorf("Best picked %q, want mc under a streaker (source sizes %v)", name2, sizes)
	}
}

func TestEndToEndSimulatedCrowd(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(3), sim.Config{N: 100, Lambda: 4, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(4), g, sim.IntegrationConfig{
		NumSources: 50, SourceSize: 8, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(WithEstimators(core.Naive{}, core.Bucket{}))
	tbl, err := db.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range st.Observations {
		if err := tbl.Insert(obs.EntityID, obs.Source, map[string]sqlparse.Value{"v": sqlparse.Number(obs.Value)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Sum()
	obsErr := abs(res.Observed - truth)
	bucketErr := abs(res.Estimates["bucket"].Estimated - truth)
	if bucketErr >= obsErr {
		t.Errorf("bucket estimate error %.0f not below observed error %.0f (truth %.0f, observed %.0f, est %.0f)",
			bucketErr, obsErr, truth, res.Observed, res.Estimates["bucket"].Estimated)
	}
}

// TestOpenOptionsFixedAtOpen: WithEstimators copies its slice, so a
// caller overwriting it after Open changes neither the estimates nor the
// result cache's answer to a repeat query; WithResultCache(0) leaves the
// result cache off.
func TestOpenOptionsFixedAtOpen(t *testing.T) {
	const sql = "SELECT SUM(v) FROM t WHERE v >= 100"
	ests := []core.SumEstimator{core.Naive{}, core.Bucket{}}
	cached, _ := buildCacheTable(t, 600, WithEstimators(ests...), WithResultCache(16<<20))
	plain, _ := buildCacheTable(t, 600, WithEstimators(ests...))
	first, err := cached.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	ests[0] = core.Frequency{}
	again, err := cached.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("repeat query missed the result cache after the caller's estimator slice changed")
	}
	if hits := cached.CacheStats().ResultHits; hits != 1 {
		t.Errorf("result hits = %d, want 1", hits)
	}
	res, err := plain.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"naive", "bucket"} {
		if _, ok := res.Estimates[name]; !ok {
			t.Errorf("estimates %v lack %q", res.Estimates, name)
		}
	}
	if _, ok := res.Estimates["freq"]; ok {
		t.Error("an estimator written into the caller's slice after Open ran")
	}

	for _, opts := range [][]Option{
		{WithResultCache(0)},
		{WithResultCache(16 << 20), WithResultCache(0)},
	} {
		db, _ := buildCacheTable(t, 200, opts...)
		for i := 0; i < 2; i++ {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		st := db.CacheStats()
		if st.ResultHits != 0 || st.ResultMisses != 0 || st.ResultEvictions != 0 || st.ResultBytes != 0 {
			t.Errorf("disabled result cache counted: %+v", st)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func ExampleDB_Query() {
	db := Open(WithEstimators(core.Bucket{}))
	tbl, _ := db.CreateTable("companies", Schema{
		{Name: "employees", Type: TypeFloat},
	})
	for _, ins := range []struct {
		id, src string
		emp     float64
	}{
		{"A", "s1", 1000}, {"B", "s1", 2000}, {"D", "s1", 10000},
		{"B", "s2", 2000}, {"D", "s2", 10000},
		{"D", "s3", 10000}, {"D", "s4", 10000},
	} {
		_ = tbl.Insert(ins.id, ins.src, map[string]sqlparse.Value{"employees": sqlparse.Number(ins.emp)})
	}
	res, _ := db.Query("SELECT SUM(employees) FROM companies")
	e, name, _ := res.Best()
	fmt.Printf("observed %.0f, %s estimate %.0f\n", res.Observed, name, e.Estimated)
	// Output: observed 13000, bucket estimate 14500
}
