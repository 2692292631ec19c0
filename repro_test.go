package repro

import (
	"math"
	"testing"
)

// observeToy loads the paper's Appendix F toy example (before s5).
func observeToy(t *testing.T, c *Collector) {
	t.Helper()
	obs := []struct {
		id  string
		v   float64
		src string
	}{
		{"A", 1000, "s1"}, {"B", 2000, "s1"}, {"D", 10000, "s1"},
		{"B", 2000, "s2"}, {"D", 10000, "s2"},
		{"D", 10000, "s3"}, {"D", 10000, "s4"},
	}
	for _, o := range obs {
		if err := c.Observe(o.id, o.v, o.src); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectorZeroValue(t *testing.T) {
	var c Collector // zero value must be usable
	if c.N() != 0 || c.UniqueEntities() != 0 {
		t.Error("zero collector not empty")
	}
	if err := c.Observe("x", 1, "s"); err != nil {
		t.Fatal(err)
	}
	if c.N() != 1 {
		t.Error("Observe on zero value failed")
	}
	est := c.EstimateSum()
	if !est.Valid {
		t.Error("single observation should still be a valid (degenerate) estimate")
	}
}

func TestCollectorToyExample(t *testing.T) {
	c := NewCollector()
	observeToy(t, c)
	if c.N() != 7 || c.UniqueEntities() != 3 {
		t.Fatalf("n=%d c=%d", c.N(), c.UniqueEntities())
	}
	if cov := c.Coverage(); math.Abs(cov-6.0/7.0) > 1e-12 {
		t.Errorf("coverage = %g", cov)
	}
	est := c.EstimateSum()
	if math.Abs(est.Estimated-14500) > 1e-9 {
		t.Errorf("bucket estimate = %g, want 14500", est.Estimated)
	}
	naive, err := c.EstimateSumWith(EstimatorNaive)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(naive.Estimated-16009.26) > 1 {
		t.Errorf("naive estimate = %g, want ~16009", naive.Estimated)
	}
	if _, err := c.EstimateSumWith("bogus"); err == nil {
		t.Error("unknown estimator not reported")
	}
}

func TestCollectorOtherAggregates(t *testing.T) {
	c := NewCollector()
	observeToy(t, c)

	cnt, err := c.EstimateCount(EstimatorNaive)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Observed != 3 || cnt.Estimated < 3 {
		t.Errorf("count: %+v", cnt)
	}

	avg, err := c.EstimateAvg(EstimatorBucket)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Observed != 13000.0/3 {
		t.Errorf("avg observed = %g", avg.Observed)
	}

	minR := c.EstimateMin()
	if !minR.Valid || minR.Observed != 1000 {
		t.Errorf("min: %+v", minR)
	}
	maxR := c.EstimateMax()
	if !maxR.Valid || maxR.Observed != 10000 {
		t.Errorf("max: %+v", maxR)
	}

	bound := c.SumUpperBound()
	if bound.Informative {
		t.Error("n=7 bound should be uninformative")
	}
}

func TestCollectorConflictReported(t *testing.T) {
	c := NewCollector()
	if err := c.Observe("a", 1, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Observe("a", 2, "s2"); err == nil {
		t.Error("conflicting value not reported")
	}
	if c.N() != 2 {
		t.Error("conflicting observation not counted")
	}
}

func TestOpenEndToEnd(t *testing.T) {
	db := Open()
	tbl, err := db.CreateTable("companies", Schema{
		{Name: "name", Type: TypeString},
		{Name: "employees", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(id, src string, emp float64) {
		t.Helper()
		if err := tbl.Insert(id, src, map[string]Value{
			"name":      StringValue(id),
			"employees": Number(emp),
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

	res, err := db.Query("SELECT SUM(employees) FROM companies")
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed != 13000 {
		t.Errorf("observed = %g", res.Observed)
	}
	bucket, ok := res.Estimates["bucket"]
	if !ok || math.Abs(bucket.Estimated-14500) > 1e-9 {
		t.Errorf("bucket = %+v (ok=%v)", bucket, ok)
	}
	if len(res.Warnings) == 0 {
		t.Error("expected warnings on a 4-source sample")
	}
}
