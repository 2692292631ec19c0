// Techsector: the paper's running example at full scale.
//
// A simulated crowd of 50 workers collects U.S. tech companies with their
// employee counts (big companies are famous and reported often; startups
// hide in the tail — the publicity-value correlation of Section 2.2). We
// load the answers into the SQL engine as they arrive and watch the
// open-world SUM estimate converge toward the hidden ground truth while
// the closed-world answer stays short.
//
// Run with: go run ./examples/techsector
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
)

func main() {
	d, err := dataset.USTechEmployment(1, 500, 50, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated crowd: %d answers about %d companies (truth SUM = %.0f)\n\n",
		d.Stream.Len(), d.Truth.N(), d.TruthSum())

	db := repro.Open()
	tbl, err := db.CreateTable("us_tech_companies", repro.Schema{
		{Name: "name", Type: repro.TypeString},
		{Name: "employees", Type: repro.TypeFloat},
	})
	if err != nil {
		log.Fatal(err)
	}

	truth := d.TruthSum()
	next := 0
	fmt.Printf("%8s  %12s  %12s  %12s  %9s\n", "answers", "observed", "bucket", "naive", "coverage")
	for _, checkpoint := range []int{100, 200, 300, 400, 500} {
		for ; next < checkpoint && next < d.Stream.Len(); next++ {
			obs := d.Stream.Observations[next]
			err := tbl.Insert(obs.EntityID, obs.Source, map[string]repro.Value{
				"name":      repro.StringValue(obs.EntityID),
				"employees": repro.Number(obs.Value),
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		res, err := db.Query("SELECT SUM(employees) FROM us_tech_companies")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %12.0f  %12.0f  %12.0f  %8.0f%%\n",
			checkpoint, res.Observed,
			res.Estimates["bucket"].Estimated,
			res.Estimates["naive"].Estimated,
			res.Coverage*100)
	}

	res, err := db.Query("SELECT SUM(employees) FROM us_tech_companies")
	if err != nil {
		log.Fatal(err)
	}
	best, name, _ := res.Best()
	fmt.Printf("\nground truth: %.0f\n", truth)
	fmt.Printf("final closed-world error:  %+.1f%%\n", 100*(res.Observed-truth)/truth)
	fmt.Printf("final %s-corrected error: %+.1f%%\n", name, 100*(best.Estimated-truth)/truth)

	// Predicates work too: how many people do the smaller companies employ?
	small, err := db.Query("SELECT SUM(employees) FROM us_tech_companies WHERE employees < 1000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSUM over companies with < 1000 employees: observed %.0f, bucket-corrected %.0f\n",
		small.Observed, small.Estimates["bucket"].Estimated)
	for _, w := range small.Warnings {
		fmt.Println("  warning:", w)
	}
}
