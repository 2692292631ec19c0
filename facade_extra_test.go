package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestObserveCSV(t *testing.T) {
	in := "entity,value,source\nA,1000,s1\nB,2000,s1\nD,10000,s1\nB,2000,s2\nD,10000,s2\nD,10000,s3\nD,10000,s4\n"
	c := NewCollector()
	conflicts, err := c.ObserveCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if conflicts != 0 {
		t.Errorf("conflicts = %d", conflicts)
	}
	if c.N() != 7 || c.UniqueEntities() != 3 {
		t.Errorf("n=%d c=%d", c.N(), c.UniqueEntities())
	}
	est := c.EstimateSum()
	if est.Estimated != 14500 {
		t.Errorf("bucket estimate = %g, want 14500", est.Estimated)
	}
}

func TestObserveCSVConflictsAndErrors(t *testing.T) {
	c := NewCollector()
	in := "entity,value,source\nA,1,s1\nA,2,s2\n"
	conflicts, err := c.ObserveCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if conflicts != 1 {
		t.Errorf("conflicts = %d, want 1", conflicts)
	}
	if _, err := c.ObserveCSV(strings.NewReader("bad"), CSVOptions{}); err == nil {
		t.Error("malformed CSV not reported")
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	obs := []Observation{
		{EntityID: "a", Value: 1, Source: "s1"},
		{EntityID: "b", Value: 2, Source: "s2"},
	}
	var buf bytes.Buffer
	if err := WriteObservationsCSV(&buf, obs, CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObservationsCSV(&buf, CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != obs[0] || got[1] != obs[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestBootstrapSumFacade(t *testing.T) {
	d, err := dataset.USTechEmployment(3, 200, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BootstrapSum(d.Stream.Observations, EstimatorNaive, 50, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo > res.Hi || res.StdErr <= 0 {
		t.Errorf("interval [%g, %g], stderr %g", res.Lo, res.Hi, res.StdErr)
	}
	if _, err := BootstrapSum(d.Stream.Observations, "bogus", 50, 0.9, 1); err == nil {
		t.Error("unknown estimator not reported")
	}
}

func TestNewTrackerFacade(t *testing.T) {
	tr, err := NewTracker(EstimatorNaive)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.USTechEmployment(5, 100, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range d.Stream.Observations {
		if err := tr.Add(o); err != nil {
			t.Fatal(err)
		}
	}
	est := tr.Estimate()
	if !est.Valid {
		t.Error("tracker estimate invalid")
	}
	if tr.N() != d.Stream.Len() {
		t.Errorf("tracked n = %d", tr.N())
	}
	if _, err := NewTracker("bogus"); err == nil {
		t.Error("unknown estimator not reported")
	}
}

func TestCollectorMerge(t *testing.T) {
	// Shard the toy example by source across two collectors.
	shard1 := NewCollector()
	shard2 := NewCollector()
	obs := []struct {
		id, src string
		v       float64
	}{
		{"A", "s1", 1000}, {"B", "s1", 2000}, {"D", "s1", 10000},
		{"B", "s2", 2000}, {"D", "s2", 10000},
		{"D", "s3", 10000}, {"D", "s4", 10000},
	}
	for _, o := range obs {
		target := shard1
		if o.src == "s3" || o.src == "s4" {
			target = shard2
		}
		if err := target.Observe(o.id, o.v, o.src); err != nil {
			t.Fatal(err)
		}
	}
	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	if shard1.N() != 7 || shard1.UniqueEntities() != 3 {
		t.Fatalf("merged: n=%d c=%d", shard1.N(), shard1.UniqueEntities())
	}
	// The merged collector answers identically to a single collector.
	est := shard1.EstimateSum()
	if est.Estimated != 14500 {
		t.Errorf("merged bucket estimate = %g, want 14500", est.Estimated)
	}
}

func TestCountConfidenceInterval(t *testing.T) {
	c := NewCollector()
	for _, o := range []struct {
		id, src string
	}{
		{"a", "s1"}, {"a", "s2"}, {"b", "s1"}, {"c", "s1"},
		{"c", "s2"}, {"d", "s3"}, {"e", "s1"}, {"e", "s3"},
	} {
		if err := c.Observe(o.id, 1, o.src); err != nil {
			t.Fatal(err)
		}
	}
	iv := c.CountConfidenceInterval(1.96)
	if !iv.Valid {
		t.Fatal("interval invalid")
	}
	if iv.Lo < float64(c.UniqueEntities()) {
		t.Errorf("lower bound %g below observed %d", iv.Lo, c.UniqueEntities())
	}
	if iv.Hi < iv.Lo {
		t.Errorf("interval [%g, %g] inverted", iv.Lo, iv.Hi)
	}
}

func TestDiagnoseThroughFacade(t *testing.T) {
	db := Open()
	tbl, err := db.CreateTable("t", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for _, src := range []string{"s1", "s2", "s3"} {
			id := string(rune('a' + i))
			if err := tbl.Insert(id, src, map[string]Value{"v": Number(float64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := db.DiagnoseSQL("t.v")
	if err != nil {
		t.Fatal(err)
	}
	if d.UniqueEntities != 10 || d.Observations != 30 {
		t.Errorf("diagnosis: %+v", d)
	}
	if d.Coverage != 1 {
		t.Errorf("coverage = %g, want 1", d.Coverage)
	}
}

func TestGroupByThroughFacade(t *testing.T) {
	db := Open()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "sector", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id, sector, src string
		v               float64
	}{
		{"a", "x", "s1", 1}, {"a", "x", "s2", 1},
		{"b", "y", "s1", 2}, {"b", "y", "s2", 2},
		{"c", "y", "s1", 3}, {"c", "y", "s2", 3},
	}
	for _, r := range rows {
		if err := tbl.Insert(r.id, r.src, map[string]Value{
			"sector": StringValue(r.sector), "v": Number(r.v),
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query("SELECT SUM(v) FROM t GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	if res.Groups[0].Result.Observed != 1 || res.Groups[1].Result.Observed != 5 {
		t.Errorf("group sums: %g, %g", res.Groups[0].Result.Observed, res.Groups[1].Result.Observed)
	}
}
