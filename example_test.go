package repro_test

import (
	"fmt"
	"strings"

	"repro"
)

// The Appendix F toy example: three companies observed across four
// sources; two more exist but were never reported (the unknown unknowns).
func Example() {
	c := repro.NewCollector()
	for _, o := range []struct {
		company string
		value   float64
		source  string
	}{
		{"A", 1000, "s1"}, {"B", 2000, "s1"}, {"D", 10000, "s1"},
		{"B", 2000, "s2"}, {"D", 10000, "s2"},
		{"D", 10000, "s3"}, {"D", 10000, "s4"},
	} {
		if err := c.Observe(o.company, o.value, o.source); err != nil {
			fmt.Println(err)
			return
		}
	}
	est := c.EstimateSum()
	fmt.Printf("observed %.0f, corrected %.0f\n", est.Observed, est.Estimated)
	// Output: observed 13000, corrected 14500
}

func ExampleCollector_EstimateSumWith() {
	c := repro.NewCollector()
	_ = c.Observe("A", 1000, "s1")
	_ = c.Observe("B", 2000, "s1")
	_ = c.Observe("D", 10000, "s1")
	_ = c.Observe("B", 2000, "s2")
	_ = c.Observe("D", 10000, "s2")
	_ = c.Observe("D", 10000, "s3")
	_ = c.Observe("D", 10000, "s4")

	naive, _ := c.EstimateSumWith(repro.EstimatorNaive)
	freq, _ := c.EstimateSumWith(repro.EstimatorFrequency)
	fmt.Printf("naive %.0f, freq %.0f\n", naive.Estimated, freq.Estimated)
	// Output: naive 16009, freq 13694
}

func ExampleCollector_ObserveCSV() {
	csv := strings.Join([]string{
		"entity,value,source",
		"A,1000,s1",
		"B,2000,s1",
		"B,2000,s2",
	}, "\n")
	c := repro.NewCollector()
	conflicts, err := c.ObserveCSV(strings.NewReader(csv), repro.CSVOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d observations, %d unique, %d conflicts\n", c.N(), c.UniqueEntities(), conflicts)
	// Output: 3 observations, 2 unique, 0 conflicts
}

func ExampleOpen() {
	db := repro.Open()
	tbl, _ := db.CreateTable("companies", repro.Schema{
		{Name: "employees", Type: repro.TypeFloat},
	})
	for _, o := range []struct {
		id, src string
		v       float64
	}{
		{"A", "s1", 1000}, {"B", "s1", 2000}, {"D", "s1", 10000},
		{"B", "s2", 2000}, {"D", "s2", 10000},
		{"D", "s3", 10000}, {"D", "s4", 10000},
	} {
		_ = tbl.Insert(o.id, o.src, map[string]repro.Value{"employees": repro.Number(o.v)})
	}
	res, _ := db.Query("SELECT SUM(employees) FROM companies WHERE employees >= 2000")
	fmt.Printf("observed %.0f over %d entities\n", res.Observed, res.Sample.C())
	// Output: observed 12000 over 2 entities
}

func ExampleCollector_EstimateMax() {
	c := repro.NewCollector()
	// Every entity observed by three sources: the sample looks complete.
	for _, src := range []string{"s1", "s2", "s3"} {
		for i, v := range []float64{10, 20, 30, 40, 50} {
			_ = c.Observe(fmt.Sprintf("e%d", i), v, src)
		}
	}
	max := c.EstimateMax()
	fmt.Printf("max %.0f trusted=%v\n", max.Observed, max.Trusted)
	// Output: max 50 trusted=true
}
