package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus estimator
// micro-benchmarks reproducing the Section 6.1.5 runtime comparison
// (bucket ~0.2s vs Monte-Carlo ~3.5s in the paper's setup; the shape —
// MC over an order of magnitude slower — is what matters).
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/freqstats"
)

// benchExperiment runs a registered experiment once per iteration in quick
// mode. The figure/table series produced are identical to
// `uuexp run <id>` output (at reduced repetition counts).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiments.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) == 0 && len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig2ObservedSum(b *testing.B)            { benchExperiment(b, "fig2") }
func BenchmarkFig4Employment(b *testing.B)             { benchExperiment(b, "fig4") }
func BenchmarkFig5aRevenue(b *testing.B)               { benchExperiment(b, "fig5a") }
func BenchmarkFig5bGDP(b *testing.B)                   { benchExperiment(b, "fig5b") }
func BenchmarkFig5cProtonBeam(b *testing.B)            { benchExperiment(b, "fig5c") }
func BenchmarkFig6SyntheticGrid(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7aStreakersOnly(b *testing.B)         { benchExperiment(b, "fig7a") }
func BenchmarkFig7bInjectedStreaker(b *testing.B)      { benchExperiment(b, "fig7b") }
func BenchmarkFig7cUpperBound(b *testing.B)            { benchExperiment(b, "fig7c") }
func BenchmarkFig7dAvg(b *testing.B)                   { benchExperiment(b, "fig7d") }
func BenchmarkFig7eMax(b *testing.B)                   { benchExperiment(b, "fig7e") }
func BenchmarkFig7fMin(b *testing.B)                   { benchExperiment(b, "fig7f") }
func BenchmarkFig8StaticBucketsReal(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9StaticBucketsSynthetic(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkFig10Combinations(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkFig11NumSources(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkTable2ToyExample(b *testing.B)           { benchExperiment(b, "table2") }

// benchSample builds the Section 6.1 employment sample at 500 answers for
// the estimator micro-benchmarks.
func benchSample(b *testing.B) *freqstats.Sample {
	b.Helper()
	d, err := dataset.USTechEmployment(1, 500, 50, 10)
	if err != nil {
		b.Fatal(err)
	}
	s, err := d.Stream.Prefix(500)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchEstimator(b *testing.B, est core.SumEstimator) {
	b.Helper()
	s := benchSample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := est.EstimateSum(s)
		if !e.Valid {
			b.Fatal("invalid estimate")
		}
	}
}

// Section 6.1.5 runtime comparison: bucket vs Monte-Carlo per-estimate cost.
func BenchmarkEstimatorNaive(b *testing.B)      { benchEstimator(b, core.Naive{}) }
func BenchmarkEstimatorFrequency(b *testing.B)  { benchEstimator(b, core.Frequency{}) }
func BenchmarkEstimatorBucket(b *testing.B)     { benchEstimator(b, core.Bucket{}) }
func BenchmarkEstimatorMonteCarlo(b *testing.B) { benchEstimator(b, core.MonteCarlo{Runs: 3, Seed: 1}) }

func BenchmarkEstimatorBucketEquiWidth(b *testing.B) {
	benchEstimator(b, core.Bucket{Strategy: core.EquiWidth{K: 10}})
}

func BenchmarkEstimatorBucketFreqInner(b *testing.B) {
	benchEstimator(b, core.Bucket{Inner: core.Frequency{}})
}

// BenchmarkCollectorObserve measures the incremental cost of maintaining
// the observation multiset and f-statistics.
func BenchmarkCollectorObserve(b *testing.B) {
	d, err := dataset.USTechEmployment(1, 500, 50, 10)
	if err != nil {
		b.Fatal(err)
	}
	obs := d.Stream.Observations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCollector()
		for _, o := range obs {
			if err := c.Observe(o.EntityID, o.Value, o.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineQuery measures the full SQL round trip (parse, filter,
// sample build, all estimators, bound, warnings).
func BenchmarkEngineQuery(b *testing.B) {
	d, err := dataset.USTechEmployment(1, 500, 50, 10)
	if err != nil {
		b.Fatal(err)
	}
	db := Open()
	tbl, err := db.CreateTable("companies", Schema{
		{Name: "name", Type: TypeString},
		{Name: "employees", Type: TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range d.Stream.Observations {
		if err := tbl.Insert(o.EntityID, o.Source, map[string]Value{
			"name":      StringValue(o.EntityID),
			"employees": Number(o.Value),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query("SELECT SUM(employees) FROM companies WHERE employees > 100")
		if err != nil {
			b.Fatal(err)
		}
		if res.Observed <= 0 {
			b.Fatal("empty result")
		}
	}
}
