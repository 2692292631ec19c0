package repro

// Substrate micro-benchmarks: the cleaning pipeline, CSV ingest, species
// estimators and engine diagnostics. These are not paper artifacts but
// bound the cost of the supporting machinery a production deployment pays.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/csvio"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/quality"
	"repro/internal/species"
	"repro/internal/sqlparse"
)

func BenchmarkQualityClean(b *testing.B) {
	raw := make([]quality.RawReport, 0, 1000)
	for i := 0; i < 1000; i++ {
		raw = append(raw, quality.RawReport{
			Entity: fmt.Sprintf("Company %d, Inc.", i%200),
			Value:  float64(i%200) * 10,
			Source: fmt.Sprintf("worker-%d", i%40),
		})
	}
	opts := quality.Options{Fusion: quality.FuseAverage, Stopwords: []string{"inc"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quality.Clean(raw, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQualityCleanFuzzy(b *testing.B) {
	raw := make([]quality.RawReport, 0, 500)
	for i := 0; i < 500; i++ {
		raw = append(raw, quality.RawReport{
			Entity: fmt.Sprintf("Company %d", i%100),
			Value:  float64(i%100) * 10,
			Source: fmt.Sprintf("worker-%d", i%40),
		})
	}
	opts := quality.Options{MaxEditDistance: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := quality.Clean(raw, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSVIngest(b *testing.B) {
	d, err := benchDatasetObservations()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := csvio.WriteObservations(&file, d, csvio.Options{}); err != nil {
		b.Fatal(err)
	}
	data := file.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Collector
		if _, err := c.ObserveCSV(bytes.NewReader(data), CSVOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeciesEstimators(b *testing.B) {
	s := benchSample(b)
	for _, name := range species.Names() {
		est, _ := species.ByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e := est(s); !e.Valid {
					b.Fatal("invalid")
				}
			}
		})
	}
}

func BenchmarkEngineDiagnose(b *testing.B) {
	obs, err := benchDatasetObservations()
	if err != nil {
		b.Fatal(err)
	}
	var db engine.DB
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "value", Type: engine.TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := engine.LoadObservations(tbl, obs, "value", "name"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Diagnose(tbl, "value"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	obs, err := benchDatasetObservations()
	if err != nil {
		b.Fatal(err)
	}
	var db engine.DB
	tbl, err := db.CreateTable("t", engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "value", Type: engine.TypeFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := engine.LoadObservations(tbl, obs, "value", "name"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			b.Fatal(err)
		}
		var restored engine.DB
		if err := restored.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWithStagedRows measures Save when the table still has
// a staged (unflushed) ingestion tail: the snapshot path runs the Flush
// barrier first, so this bounds the worst-case "persist under streaming"
// cost next to the warm BenchmarkSnapshotRoundTrip above.
func BenchmarkSnapshotWithStagedRows(b *testing.B) {
	obs, err := benchDatasetObservations()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var db engine.DB
		tbl, err := db.CreateTable("t", engine.Schema{
			{Name: "name", Type: engine.TypeString},
			{Name: "value", Type: engine.TypeFloat},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range obs {
			if err := tbl.Append(o.EntityID, o.Source, map[string]sqlparse.Value{
				"name":  sqlparse.StringValue(o.EntityID),
				"value": sqlparse.Number(o.Value),
			}); err != nil {
				b.Fatal(err)
			}
		}
		var buf bytes.Buffer
		b.StartTimer()
		if err := db.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDatasetObservations() ([]Observation, error) {
	d, err := dataset.USTechEmployment(1, 500, 50, 10)
	if err != nil {
		return nil, err
	}
	return d.Stream.Observations, nil
}
