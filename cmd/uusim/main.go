// Command uusim generates synthetic data-integration scenarios as CSV
// observation files, for experimenting with the estimators on controlled
// inputs (population size, publicity skew, publicity-value correlation,
// source count and balance, streakers).
//
// Usage:
//
//	uusim -n 100 -lambda 4 -rho 1 -sources 20 -per-source 15 > obs.csv
//	uusim -streaker-at 160 ...                 inject an exhaustive streaker
//	uusim -truth                               print the ground truth instead
//	uusim -ingest -batch 256 -flush-every 50   stream into the engine instead
//	                                           of printing CSV: exercises the
//	                                           batched asynchronous ingestion
//	                                           pipeline end to end and reports
//	                                           throughput plus the open-world
//	                                           SUM against the ground truth
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/csvio"
	"repro/internal/engine"
	"repro/internal/randx"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uusim:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 100, "population size N")
	lambda := flag.Float64("lambda", 0, "publicity skew (0 = uniform, 4 = highly skewed)")
	rho := flag.Float64("rho", 0, "publicity-value correlation in [0, 1]")
	sources := flag.Int("sources", 10, "number of data sources")
	perSource := flag.Int("per-source", 10, "items sampled per source (without replacement)")
	seed := flag.Int64("seed", 1, "RNG seed")
	streakerAt := flag.Int("streaker-at", -1, "inject an exhaustive streaker at this stream position (-1 = none)")
	truthOnly := flag.Bool("truth", false, "print the ground truth (entity,value,publicity) and exit")
	ingest := flag.Bool("ingest", false, "stream the scenario into the engine's batched ingestion pipeline instead of printing CSV")
	batch := flag.Int("batch", 256, "with -ingest: per-shard batch size (drain threshold)")
	flushEvery := flag.Int("flush-every", 0, "with -ingest: run a Flush barrier every N observations (0 = only at the end)")
	watch := flag.Bool("watch", false, "with -ingest: subscribe to the SUM query and print each live re-estimate as batches land")
	flag.Parse()

	rng := randx.New(*seed)
	truth, err := sim.NewGroundTruth(rng, sim.Config{N: *n, Lambda: *lambda, Rho: *rho})
	if err != nil {
		return err
	}

	if *truthOnly {
		fmt.Println("entity,value,publicity")
		for _, it := range truth.Items {
			fmt.Printf("%s,%g,%g\n", it.ID, it.Value, it.Publicity)
		}
		fmt.Fprintf(os.Stderr, "uusim: truth SUM=%g AVG=%g MIN=%g MAX=%g N=%d\n",
			truth.Sum(), truth.Avg(), truth.Min(), truth.Max(), truth.N())
		return nil
	}

	stream, err := sim.Integrate(randx.New(*seed+1), truth, sim.IntegrationConfig{
		NumSources: *sources, SourceSize: *perSource, Interleave: true,
	})
	if err != nil {
		return err
	}
	if *streakerAt >= 0 {
		stream = sim.InjectStreaker(stream, truth, *streakerAt, "streaker")
	}

	if *ingest {
		return ingestScenario(stream, truth, *batch, *flushEvery, *watch)
	}

	if err := csvio.WriteObservations(os.Stdout, stream.Observations, csvio.Options{}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "uusim: %d observations, truth SUM=%g (N=%d)\n",
		stream.Len(), truth.Sum(), truth.N())
	return nil
}

// ingestScenario streams the generated observations through the engine's
// batched asynchronous ingestion (staging + background appliers + Flush
// barriers) and answers the open-world SUM at the end — an end-to-end
// exercise of the streaming pipeline on a controlled scenario.
func ingestScenario(stream *sim.Stream, truth *sim.GroundTruth, batch, flushEvery int, watch bool) error {
	db := engine.Open()
	defer db.Close()
	tbl, err := db.CreateTable("data", engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "value", Type: engine.TypeFloat},
	})
	if err != nil {
		return err
	}
	// -watch: a live subscription re-estimates the SUM after every applied
	// batch, so the open-world correction is visible converging toward the
	// truth as sources land.
	stopWatch := func() error { return nil }
	if watch {
		sub, err := db.Subscribe("SELECT SUM(value) FROM data")
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for res := range sub.Updates() {
				line := fmt.Sprintf("watch:     observed=%.2f", res.Observed)
				if best, name, ok := res.Best(); ok {
					line += fmt.Sprintf("  %s-corrected=%.2f", name, best.Estimated)
				}
				fmt.Println(line)
			}
		}()
		stopWatch = func() error {
			err := sub.Close()
			<-done
			fmt.Printf("watched:   %d live re-estimates emitted\n", sub.Emitted())
			return err
		}
	}
	start := time.Now()
	conflicts, err := engine.StreamObservations(tbl, stream.Observations, "value", "name", batch, flushEvery)
	if err != nil {
		return err
	}
	if conflicts > 0 {
		fmt.Fprintf(os.Stderr, "uusim: %d value conflicts in the stream (first value kept)\n", conflicts)
	}
	elapsed := time.Since(start)
	if err := stopWatch(); err != nil {
		return err
	}
	st := tbl.IngestStats()
	fmt.Printf("ingested:  %d observations in %v (%.0f rows/s; batch=%d, %d batches, %d flush barriers)\n",
		stream.Len(), elapsed.Round(time.Microsecond), float64(stream.Len())/elapsed.Seconds(), batch, st.Batches, st.Flushes)
	fmt.Printf("table:     %d unique entities, %d observations, %d sources\n",
		tbl.NumRecords(), tbl.NumObservations(), len(tbl.Sources()))
	res, err := db.Query("SELECT SUM(value) FROM data")
	if err != nil {
		return err
	}
	fmt.Printf("observed:  %.2f\n", res.Observed)
	if best, name, ok := res.Best(); ok {
		fmt.Printf("best:      %s-corrected=%.2f\n", name, best.Estimated)
	}
	fmt.Printf("truth:     %.2f (N=%d)\n", truth.Sum(), truth.N())
	return nil
}
