// Command uuquery demonstrates open-world aggregate querying end to end:
// it loads one of the built-in simulated crowdsourced data sets into the
// lineage-preserving engine and runs an aggregate SQL query against it,
// printing the closed-world answer, every estimator's correction, the
// Section 4 upper bound and the engine's warnings.
//
// Usage:
//
//	uuquery -dataset us-tech-employment -n 500 "SELECT SUM(employees) FROM companies"
//	uuquery -dataset us-gdp -diagnose "SELECT SUM(gdp) FROM states"
//	uuquery -csv observations.csv "SELECT SUM(value) FROM data"
//	uuquery -stream -watch -dataset us-gdp "SELECT SUM(gdp) FROM states"
//	uuquery -csv observations.csv -save db.json
//	uuquery -load db.json "SELECT COUNT(*) FROM data"
//	uuquery -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/csvio"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

type datasetSpec struct {
	name  string
	table string
	attr  string
	build func(seed int64) (*dataset.Dataset, error)
}

var specs = []datasetSpec{
	{
		name: "us-tech-employment", table: "companies", attr: "employees",
		build: func(seed int64) (*dataset.Dataset, error) {
			return dataset.USTechEmployment(seed, 500, 50, 10)
		},
	},
	{
		name: "us-tech-revenue", table: "companies", attr: "revenue",
		build: func(seed int64) (*dataset.Dataset, error) {
			return dataset.USTechRevenue(seed, 400, 50, 10)
		},
	},
	{
		name: "us-gdp", table: "states", attr: "gdp",
		build: func(seed int64) (*dataset.Dataset, error) {
			return dataset.USGDP(seed, 30, 8)
		},
	},
	{
		name: "proton-beam", table: "studies", attr: "participants",
		build: func(seed int64) (*dataset.Dataset, error) {
			return dataset.ProtonBeam(seed, 300, 60, 8)
		},
	},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uuquery:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("dataset", "us-tech-employment", "built-in data set to load")
	n := flag.Int("n", 0, "replay only the first n observations (0 = all)")
	seed := flag.Int64("seed", 1, "RNG seed for the simulated crowd")
	list := flag.Bool("list", false, "list built-in data sets and exit")
	csvFile := flag.String("csv", "", "load observations from a CSV file instead of a built-in data set (table 'data', column 'value')")
	loadFile := flag.String("load", "", "restore the database from a JSON snapshot instead of a built-in data set")
	saveFile := flag.String("save", "", "write the loaded database to a JSON snapshot after querying")
	diagnose := flag.Bool("diagnose", false, "print an integration health report for the queried table")
	useCache := flag.Bool("cache", true, "enable the whole-result query cache (scan caches are always on)")
	cacheBytes := flag.Int("cache-bytes", 64<<20, "result cache budget in bytes")
	repeat := flag.Int("repeat", 1, "run the query N times (repeats exercise the caches)")
	cacheStats := flag.Bool("cachestats", false, "print cache hit/miss/bytes statistics after querying")
	stream := flag.Bool("stream", false, "ingest through the batched asynchronous pipeline (staging + appliers) instead of per-row inserts")
	watch := flag.Bool("watch", false, "with -stream: subscribe to the query and print each live re-estimate as ingest batches land")
	batch := flag.Int("batch", 256, "with -stream: per-shard batch size (drain threshold)")
	flushEvery := flag.Int("flush-every", 0, "with -stream: run a read-your-writes Flush barrier every N observations (0 = only at the end)")
	backendName := flag.String("backend", "mem", "shard storage backend: mem (in-memory columnar) or disk (mmap'd page-formatted segments)")
	backendDir := flag.String("backend-dir", "", "with -backend disk: segment directory (default: a temp dir removed on exit)")
	durable := flag.Bool("durable", false, "with -backend disk and -backend-dir: crash-durable mode (WAL + checkpoints; rerunning adopts nothing — tables are recreated)")
	walSync := flag.Int("wal-sync", 0, "with -durable: fsync the WAL every N records (0 = default 64, negative = never)")
	flag.Parse()

	if *list {
		for _, s := range specs {
			fmt.Printf("%-20s table %q, attribute %q\n", s.name, s.table, s.attr)
		}
		return nil
	}

	backend, err := engine.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	var opts []engine.Option
	if backend == engine.BackendDisk {
		dir := *backendDir
		if dir == "" {
			if *durable {
				return fmt.Errorf("-durable requires -backend-dir (a temp dir is removed on exit)")
			}
			tmp, err := os.MkdirTemp("", "uuquery-disk-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		opts = append(opts, engine.WithBackend(engine.StorageConfig{
			Backend: engine.BackendDisk,
			Dir:     dir,
			Durable: *durable,
			WALSync: *walSync,
		}))
	}
	if *useCache {
		opts = append(opts, engine.WithResultCache(*cacheBytes))
	}
	db := engine.Open(opts...)
	defer db.Close()
	var tbl *engine.Table
	var truth float64
	haveTruth := false
	sql := ""

	switch {
	case *csvFile != "":
		f, err := os.Open(*csvFile)
		if err != nil {
			return err
		}
		defer f.Close()
		var t *engine.Table
		if *stream {
			obs, err := csvio.ReadObservations(f, csvio.Options{})
			if err != nil {
				return err
			}
			t, err = db.CreateTable("data", engine.Schema{
				{Name: "name", Type: engine.TypeString},
				{Name: "value", Type: engine.TypeFloat},
			})
			if err != nil {
				return err
			}
			stopWatch, err := startWatch(db, watchSQL("SELECT SUM(value) FROM data"), *watch)
			if err != nil {
				return err
			}
			if err := streamObservations(t, obs, "value", *batch, *flushEvery); err != nil {
				return err
			}
			if err := stopWatch(); err != nil {
				return err
			}
		} else {
			var conflicts int
			t, conflicts, err = engine.LoadCSVTable(db, "data", "value", f, csvio.Options{})
			if err != nil {
				return err
			}
			if conflicts > 0 {
				fmt.Printf("warning:   %d value conflicts in the CSV (first value kept)\n", conflicts)
			}
		}
		tbl = t
		sql = "SELECT SUM(value) FROM data"
		fmt.Printf("dataset:   %s\n", *csvFile)
	case *loadFile != "":
		f, err := os.Open(*loadFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := db.Load(f); err != nil {
			return err
		}
		names := db.TableNames()
		if len(names) == 0 {
			return fmt.Errorf("snapshot %q holds no tables", *loadFile)
		}
		tbl, _ = db.Table(names[0])
		if flag.NArg() == 0 {
			return fmt.Errorf("a query is required with -load (tables: %v)", names)
		}
		fmt.Printf("dataset:   snapshot %s (tables %v)\n", *loadFile, names)
	default:
		var spec *datasetSpec
		for i := range specs {
			if specs[i].name == *name {
				spec = &specs[i]
				break
			}
		}
		if spec == nil {
			return fmt.Errorf("unknown dataset %q (use -list)", *name)
		}
		d, err := spec.build(*seed)
		if err != nil {
			return err
		}
		limit := d.Stream.Len()
		if *n > 0 && *n < limit {
			limit = *n
		}
		t, err := db.CreateTable(spec.table, engine.Schema{
			{Name: "name", Type: engine.TypeString},
			{Name: spec.attr, Type: engine.TypeFloat},
		})
		if err != nil {
			return err
		}
		if *stream {
			defaultSQL := fmt.Sprintf("SELECT SUM(%s) FROM %s", spec.attr, spec.table)
			stopWatch, err := startWatch(db, watchSQL(defaultSQL), *watch)
			if err != nil {
				return err
			}
			if err := streamObservations(t, d.Stream.Observations[:limit], spec.attr, *batch, *flushEvery); err != nil {
				return err
			}
			if err := stopWatch(); err != nil {
				return err
			}
		} else {
			for _, obs := range d.Stream.Observations[:limit] {
				err := t.Insert(obs.EntityID, obs.Source, map[string]sqlparse.Value{
					"name":    sqlparse.StringValue(obs.EntityID),
					spec.attr: sqlparse.Number(obs.Value),
				})
				if err != nil {
					return err
				}
			}
		}
		tbl = t
		truth = d.TruthSum()
		haveTruth = true
		sql = fmt.Sprintf("SELECT SUM(%s) FROM %s", spec.attr, spec.table)
		fmt.Printf("dataset:   %s (%s)\n", d.Name, d.Description)
	}

	if flag.NArg() > 0 {
		sql = flag.Arg(0)
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var res *engine.Result
	for i := 0; i < *repeat; i++ {
		r, err := db.Query(sql)
		if err != nil {
			return err
		}
		res = r
	}

	fmt.Printf("loaded:    %d observations, %d unique entities, %d sources\n",
		tbl.NumObservations(), tbl.NumRecords(), len(tbl.Sources()))
	fmt.Printf("query:     %s\n", res.Query)
	if len(res.Groups) > 0 {
		for _, g := range res.Groups {
			sub := g.Result
			line := fmt.Sprintf("group %s: observed=%.2f", g.Key, sub.Observed)
			if best, name, ok := sub.Best(); ok {
				line += fmt.Sprintf("  %s-corrected=%.2f", name, best.Estimated)
			}
			fmt.Println(line)
		}
		for _, w := range res.Warnings {
			fmt.Println("warning:  ", w)
		}
		printCacheStats(db, tbl, *cacheStats)
		return saveSnapshot(db, *saveFile)
	}
	fmt.Printf("observed:  %.2f   (closed-world answer)\n", res.Observed)
	if haveTruth {
		fmt.Printf("truth:     %.2f   (simulated ground truth)\n", truth)
	}
	fmt.Printf("coverage:  %.1f%%\n", res.Coverage*100)

	names := make([]string, 0, len(res.Estimates))
	for n := range res.Estimates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := res.Estimates[n]
		flagStr := ""
		if e.Diverged {
			flagStr = " [diverged]"
		}
		fmt.Printf("  %-8s corrected=%.2f  delta=%.2f  N-hat=%.1f%s\n",
			n+":", e.Estimated, e.Delta, e.CountEstimated, flagStr)
	}
	if best, name, ok := res.Best(); ok {
		fmt.Printf("best:      %s -> %.2f (per Section 6.5 guidance)\n", name, best.Estimated)
	}
	if res.Extreme != nil {
		fmt.Printf("extreme:   observed=%.2f trusted=%v (missing in extreme bucket: %.2f)\n",
			res.Extreme.Observed, res.Extreme.Trusted, res.Extreme.ExtremeBucketMissing)
	}
	if res.Query.Agg == sqlparse.AggSum {
		if res.Bound.Informative {
			fmt.Printf("bound:     phi_D <= %.2f with 99%% confidence\n", res.Bound.SumBound)
		} else {
			fmt.Println("bound:     not yet informative (sample too small)")
		}
	}
	if res.CountInterval != nil && res.CountInterval.Valid {
		fmt.Printf("interval:  Chao87 95%% CI on the unique-entity count: [%.1f, %.1f]\n",
			res.CountInterval.Lo, res.CountInterval.Hi)
	}
	for _, w := range res.Warnings {
		fmt.Println("warning:  ", w)
	}
	if *diagnose {
		attr := res.Query.Attr
		if attr == "*" {
			attr = ""
		}
		target := res.Query.Table
		if attr != "" {
			target += "." + attr
		}
		diag, err := db.DiagnoseSQL(target)
		if err != nil {
			return err
		}
		fmt.Println("\n" + diag.String())
	}
	printCacheStats(db, tbl, *cacheStats)
	return saveSnapshot(db, *saveFile)
}

// streamObservations replays an observation stream through the batched
// asynchronous ingestion pipeline (engine.StreamObservations: background
// appliers at the given batch size, a read-your-writes Flush barrier
// every flushEvery observations plus once at the end) and prints
// throughput, ingest counters and any value-conflict count.
func streamObservations(t *engine.Table, obs []freqstats.Observation, attr string, batch, flushEvery int) error {
	start := time.Now()
	conflicts, err := engine.StreamObservations(t, obs, attr, "name", batch, flushEvery)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := t.IngestStats()
	fmt.Printf("streamed:  %d observations in %v (%.0f rows/s; %d batches, %d flush barriers)\n",
		len(obs), elapsed.Round(time.Millisecond), float64(len(obs))/elapsed.Seconds(), st.Batches, st.Flushes)
	if conflicts > 0 {
		fmt.Printf("warning:   %d value conflicts in the stream (first value kept)\n", conflicts)
	}
	return nil
}

// watchSQL picks the query a -watch subscription follows: the
// command-line query when one was given, the branch's default otherwise.
func watchSQL(defaultSQL string) string {
	if flag.NArg() > 0 {
		return flag.Arg(0)
	}
	return defaultSQL
}

// startWatch subscribes to sql and prints each live emission while the
// stream loads (the incremental pipeline re-estimates after every applied
// batch). The returned stop function closes the subscription and waits
// for the printer to drain; it is a no-op when -watch is off.
func startWatch(db *engine.DB, sql string, enabled bool) (func() error, error) {
	if !enabled {
		return func() error { return nil }, nil
	}
	sub, err := db.Subscribe(sql)
	if err != nil {
		return nil, err
	}
	fmt.Printf("watching:  %s\n", sub.Query())
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
	return func() error {
		err := sub.Close()
		<-done
		fmt.Printf("watched:   %d live re-estimates emitted\n", sub.Emitted())
		return err
	}, nil
}

// printCacheStats reports which storage backend served the queries plus
// the engine's cache counters (compiled filter programs, per-shard sample
// partials, whole-query results) when requested via -cachestats.
func printCacheStats(db *engine.DB, tbl *engine.Table, enabled bool) {
	if !enabled {
		return
	}
	fmt.Printf("storage:   backend %s (table %q)\n", tbl.StorageBackend(), tbl.Name())
	s := db.CacheStats()
	fmt.Printf("cache:     programs %d hits / %d misses\n", s.ProgramHits, s.ProgramMisses)
	fmt.Printf("           partials %d hits / %d misses, %d of them caught up (%d bytes, %d evictions; incremental per-shard requery)\n",
		s.PartialHits, s.PartialMisses, s.PartialCatchUps, s.PartialBytes, s.PartialEvictions)
	fmt.Printf("           results %d hits / %d misses (%d bytes, %d evictions)\n",
		s.ResultHits, s.ResultMisses, s.ResultBytes, s.ResultEvictions)
	fmt.Printf("           string dicts %d entries (%d bytes resident)\n",
		s.DictEntries, s.DictBytes)
}

// saveSnapshot writes the database to path when set.
func saveSnapshot(db *engine.DB, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("snapshot:  written to %s\n", path)
	return nil
}
