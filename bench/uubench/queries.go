package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// entity is one generated entity: its identity and its attribute values
// in schema order. Every observation of the entity carries these values.
type entity struct {
	id   string
	vals []sqlparse.Value
}

// observation is one generated row: a source reporting an entity.
type observation struct {
	entity int // index into tableData.entities
	source string
}

// tableData is a generated table: the rows the benchmark loads, in load
// order, and the entities they describe, which the oracle evaluates
// predicates against.
type tableData struct {
	name     string
	schema   engine.Schema
	entities []entity
	rows     []observation
}

// entityRow exposes an entity's values to sqlparse.Evaluate.
type entityRow struct {
	schema engine.Schema
	vals   []sqlparse.Value
}

func (r entityRow) Column(name string) (sqlparse.Value, bool) {
	for i, c := range r.schema {
		if c.Name == name {
			return r.vals[i], true
		}
	}
	return sqlparse.Value{}, false
}

// fromObservations turns a simulated observation stream into a two-column
// (name STRING, attr FLOAT) table.
func fromObservations(table, attr string, obs []freqstats.Observation) *tableData {
	td := &tableData{
		name:   table,
		schema: engine.Schema{{Name: "name", Type: engine.TypeString}, {Name: attr, Type: engine.TypeFloat}},
	}
	index := map[string]int{}
	for _, o := range obs {
		i, ok := index[o.EntityID]
		if !ok {
			i = len(td.entities)
			index[o.EntityID] = i
			td.entities = append(td.entities, entity{
				id:   o.EntityID,
				vals: []sqlparse.Value{sqlparse.StringValue(o.EntityID), sqlparse.Number(o.Value)},
			})
		}
		td.rows = append(td.rows, observation{entity: i, source: o.Source})
	}
	return td
}

// queryData is a query workload's generated input: the table, and the
// generator of its query sequence, one cycle at a time.
type queryData struct {
	table *tableData
	disk  bool
	// cycle returns the next cycle of queries. Each cycle holds the
	// workload's query mix in exact proportion, so a run of whole cycles
	// measures the same mix whatever its length.
	cycle func(rng *rand.Rand) []string
	// candidates narrows the entities a query's predicate can select, so
	// the oracle need not evaluate every entity.
	candidates func(q *sqlparse.Query) []int
}

// cuts returns 16 thresholds k such that "attr > k" selects from all
// entities down to the top sixteenth by value, and the oracle's
// candidates for such a predicate: the entities above k, found by binary
// search over the entities sorted by value.
func cuts(td *tableData) ([]float64, func(q *sqlparse.Query) []int) {
	vOf := func(i int) float64 { return td.entities[i].vals[1].Num }
	byV := make([]int, len(td.entities))
	for i := range byV {
		byV[i] = i
	}
	sort.SliceStable(byV, func(a, b int) bool { return vOf(byV[a]) < vOf(byV[b]) })
	ks := make([]float64, 16)
	for i := range ks {
		ks[i] = vOf(byV[i*len(byV)/16]) - 1
	}
	return ks, func(q *sqlparse.Query) []int {
		c, _ := q.Where.(sqlparse.Comparison)
		k, _ := c.Right.(sqlparse.Literal)
		return byV[sort.Search(len(byV), func(i int) bool { return vOf(byV[i]) > k.Value.Num }):]
	}
}

func genCrowdSum(seed int64, quick bool) (*queryData, error) {
	companies, workers, answers := 1000, 10, 50
	if quick {
		companies, workers, answers = 200, 6, 20
	}
	d, err := dataset.USTechEmployment(seed, companies, workers, answers)
	if err != nil {
		return nil, err
	}
	td := fromObservations("companies", "employees", d.Stream.Observations)
	ks, candidates := cuts(td)
	cycles := 0
	return &queryData{table: td, candidates: candidates, cycle: func(rng *rand.Rand) []string {
		// A cut is counted in one cycle of every four and summed in the
		// others: each cycle holds the 3:1 SUM:COUNT mix, and four cycles
		// hold it for every cut.
		out := make([]string, 0, len(ks))
		for _, i := range rng.Perm(len(ks)) {
			agg := "SUM(employees)"
			if (i+cycles)%4 == 0 {
				agg = "COUNT(*)"
			}
			out = append(out, fmt.Sprintf("SELECT %s FROM companies WHERE employees > %g", agg, ks[i]))
		}
		cycles++
		return out
	}}, nil
}

func genSyntheticAvg(seed int64, quick bool) (*queryData, error) {
	n, sources, perSource := 20000, 10, 2000
	if quick {
		n, sources, perSource = 2000, 10, 200
	}
	d, err := dataset.Synthetic(seed, n, 1, 0.5, sources, perSource)
	if err != nil {
		return nil, err
	}
	td := fromObservations("items", "value", d.Stream.Observations)
	ks, candidates := cuts(td)
	return &queryData{table: td, candidates: candidates, cycle: func(rng *rand.Rand) []string {
		var out []string
		for _, k := range ks {
			for _, agg := range []string{"AVG", "AVG", "AVG", "MEDIAN", "MAX"} {
				out = append(out, fmt.Sprintf("SELECT %s(value) FROM items WHERE value > %g", agg, k))
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}}, nil
}

// Drill-down table shape: entities spread over 64 regions with integer
// values uniform in [1, drillMaxV]; a region query's v-range is sized to
// select about 235 entities of the full table.
const (
	drillRegions  = 64
	drillMaxV     = 10000
	drillSources  = 16
	drillEntities = 300000
)

func genDrilldownDisk(seed int64, quick bool) (*queryData, error) {
	n := drillEntities
	if quick {
		n = 20000
	}
	rng := rand.New(rand.NewSource(seed))
	td := &tableData{
		name:   "obs",
		schema: engine.Schema{{Name: "region", Type: engine.TypeString}, {Name: "v", Type: engine.TypeFloat}},
	}
	sources := make([]string, drillSources)
	for i := range sources {
		sources[i] = fmt.Sprintf("s-%02d", i)
	}
	regions := make([]sqlparse.Value, drillRegions)
	for i := range regions {
		regions[i] = sqlparse.StringValue(fmt.Sprintf("r-%02d", i))
	}
	// Entities sorted by v, overall and per region, let the oracle find a
	// predicate's candidates by binary search.
	var byV []int
	byRegion := map[string][]int{}
	for i := 0; i < n; i++ {
		region := regions[rng.Intn(drillRegions)]
		td.entities = append(td.entities, entity{
			id:   fmt.Sprintf("d%06d", i),
			vals: []sqlparse.Value{region, sqlparse.Number(float64(1 + rng.Intn(drillMaxV)))},
		})
		byV = append(byV, i)
		byRegion[region.Str] = append(byRegion[region.Str], i)
		// Mentions per entity are geometric with mean ~1.27, each from a
		// distinct source.
		first := rng.Intn(drillSources)
		for k := 0; k == 0 || (k < drillSources && rng.Float64() < 0.215); k++ {
			td.rows = append(td.rows, observation{entity: i, source: sources[(first+k)%drillSources]})
		}
	}
	vOf := func(i int) float64 { return td.entities[i].vals[1].Num }
	sortByV := func(list []int) {
		sort.SliceStable(list, func(a, b int) bool { return vOf(list[a]) < vOf(list[b]) })
	}
	sortByV(byV)
	for _, list := range byRegion {
		sortByV(list)
	}
	within := func(list []int, lo, hi float64) []int {
		a := sort.Search(len(list), func(i int) bool { return vOf(list[i]) >= lo })
		b := sort.Search(len(list), func(i int) bool { return vOf(list[i]) > hi })
		return list[a:b]
	}
	// regionWidth selects ~235 of a region's entities, groupWidth ~235
	// entities across all regions (64 groups of a few entities).
	regionWidth := float64(drillMaxV) * 235 * drillRegions / float64(n)
	groupWidth := regionWidth / drillRegions
	used := map[string]bool{}
	fresh := func(rng *rand.Rand, width float64) (lo, hi string) {
		for {
			l := float64(rng.Intn(int((drillMaxV-width)*1000))) / 1000
			lo, hi = strconv.FormatFloat(l, 'f', -1, 64), strconv.FormatFloat(l+width, 'f', -1, 64)
			if !used[lo+"/"+hi] {
				used[lo+"/"+hi] = true
				return lo, hi
			}
		}
	}
	return &queryData{
		table: td,
		disk:  true,
		cycle: func(rng *rand.Rand) []string {
			kinds := []string{"AVG", "AVG", "AVG", "AVG", "AVG", "AVG", "AVG", "MAX", "MAX", "GROUP"}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			out := make([]string, len(kinds))
			for i, kind := range kinds {
				if kind == "GROUP" {
					lo, hi := fresh(rng, groupWidth)
					out[i] = fmt.Sprintf("SELECT AVG(v) FROM obs WHERE v BETWEEN %s AND %s GROUP BY region", lo, hi)
					continue
				}
				region := rng.Intn(drillRegions)
				lo, hi := fresh(rng, regionWidth)
				out[i] = fmt.Sprintf("SELECT %s(v) FROM obs WHERE region = 'r-%02d' AND v BETWEEN %s AND %s", kind, region, lo, hi)
			}
			return out
		},
		candidates: func(q *sqlparse.Query) []int {
			list, b := byV, sqlparse.Between{}
			switch w := q.Where.(type) {
			case sqlparse.Between:
				b = w
			case sqlparse.Logical:
				if c, ok := w.Left.(sqlparse.Comparison); ok {
					region, _ := c.Right.(sqlparse.Literal)
					list = byRegion[region.Value.Str]
				}
				b, _ = w.Right.(sqlparse.Between)
			}
			lo, _ := b.Lo.(sqlparse.Literal)
			hi, _ := b.Hi.(sqlparse.Literal)
			return within(list, lo.Value.Num, hi.Value.Num)
		},
	}, nil
}

// instance is one loaded database of a query workload.
type instance struct {
	db  *engine.DB
	dir string // disk-backend storage root, "" for memory
}

func (in *instance) close() {
	in.db.Close()
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// load opens a database, creates the table, stages every row through a
// Writer and, on disk, compacts each shard into one segment: everything a
// deployment does before its first query.
func load(td *tableData, dir string) (*instance, error) {
	in := &instance{dir: dir}
	var opts []engine.Option
	if dir != "" {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		opts = append(opts, engine.WithBackend(engine.StorageConfig{Backend: engine.BackendDisk, Dir: dir}))
	}
	in.db = engine.Open(opts...)
	tbl, err := in.db.CreateTable(td.name, td.schema)
	if err != nil {
		in.close()
		return nil, err
	}
	w := tbl.NewWriter()
	for _, r := range td.rows {
		e := &td.entities[r.entity]
		if err := w.AppendRow(e.id, r.source, e.vals); err != nil {
			in.close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		in.close()
		return nil, err
	}
	if dir != "" {
		if err := tbl.Compact(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// expected is the oracle's closed-world answer to a query: the observed
// value and the number of entities that produce it.
type expected struct {
	observed float64
	count    int
}

// selected is the oracle's selection: the entities the row-at-a-time
// predicate evaluator keeps. Values are integers, so the oracle's sums are
// exact in any order and the engine's observed values must match bit for
// bit.
func (d *queryData) selected(q *sqlparse.Query) ([]int, error) {
	td := d.table
	var out []int
	for _, i := range d.candidates(q) {
		ok, err := sqlparse.Evaluate(q.Where, entityRow{td.schema, td.entities[i].vals})
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

func (d *queryData) aggregate(q *sqlparse.Query, ents []int) expected {
	td := d.table
	col := -1
	for i, c := range td.schema {
		if c.Name == q.Attr {
			col = i
		}
	}
	vals := make([]float64, 0, len(ents))
	var sum float64
	for _, i := range ents {
		v := 0.0
		if col >= 0 {
			v = td.entities[i].vals[col].Num
		}
		vals = append(vals, v)
		sum += v
	}
	e := expected{count: len(ents)}
	if len(vals) == 0 {
		return e
	}
	sort.Float64s(vals)
	switch q.Agg {
	case sqlparse.AggSum:
		e.observed = sum
	case sqlparse.AggCount:
		e.observed = float64(len(vals))
	case sqlparse.AggAvg:
		e.observed = sum / float64(len(vals))
	case sqlparse.AggMin:
		e.observed = vals[0]
	case sqlparse.AggMax:
		e.observed = vals[len(vals)-1]
	case sqlparse.AggMedian:
		pos := 0.5 * float64(len(vals)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		e.observed = vals[lo]
		if lo != hi {
			frac := pos - float64(lo)
			e.observed = vals[lo]*(1-frac) + vals[hi]*frac
		}
	}
	return e
}

// check compares a result with the oracle's closed-world answer.
func (d *queryData) check(sql string, res *engine.Result) error {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	ents, err := d.selected(q)
	if err != nil {
		return err
	}
	if q.GroupBy == "" {
		return checkOne(q, res, d.aggregate(q, ents))
	}
	col := 0
	for i, c := range d.table.schema {
		if c.Name == q.GroupBy {
			col = i
		}
	}
	byKey := map[string][]int{}
	for _, i := range ents {
		k := d.table.entities[i].vals[col].Str
		byKey[k] = append(byKey[k], i)
	}
	if len(res.Groups) != len(byKey) {
		return fmt.Errorf("%d groups, oracle has %d", len(res.Groups), len(byKey))
	}
	for _, g := range res.Groups {
		members, ok := byKey[g.Key.Str]
		if !ok {
			return fmt.Errorf("unexpected group %s", g.Key)
		}
		if err := checkOne(q, g.Result, d.aggregate(q, members)); err != nil {
			return fmt.Errorf("group %s: %w", g.Key, err)
		}
	}
	return nil
}

func checkOne(q *sqlparse.Query, res *engine.Result, want expected) error {
	if res.Observed != want.observed {
		return fmt.Errorf("observed %v, oracle %v", res.Observed, want.observed)
	}
	count := -1
	switch q.Agg {
	case sqlparse.AggSum, sqlparse.AggCount, sqlparse.AggAvg:
		count = res.Estimates["naive"].CountObserved
	case sqlparse.AggMedian:
		count = res.Estimates["median"].CountObserved
	}
	if count >= 0 && count != want.count {
		return fmt.Errorf("%d entities observed, oracle %d", count, want.count)
	}
	return nil
}

// verifier checks every answer of a run: against the oracle, and against
// the first answer to the same SQL, which must repeat bit for bit.
type verifier struct {
	data *queryData
	seen map[string]string
	r    *report
}

func (v *verifier) verify(sql string, res *engine.Result, err error) {
	v.r.attempted++
	if err != nil {
		v.r.fail("%s: %v", sql, err)
		return
	}
	if err := v.data.check(sql, res); err != nil {
		v.r.fail("%s: %v", sql, err)
		return
	}
	d := resultDigest(res)
	if prev, ok := v.seen[sql]; ok && prev != d {
		v.r.fail("%s: result changed between runs of the same query", sql)
		return
	}
	v.seen[sql] = d
}

// queryWorkload is a workload of one closed-loop client sending SQL
// queries to an engine.DB.
type queryWorkload struct {
	name     string
	generate func(seed int64, quick bool) (*queryData, error)
}

// runQueries runs whole cycles of queries until at least d has passed,
// calling do for each.
func runQueries(rng *rand.Rand, data *queryData, d time.Duration, do func(sql string)) {
	start := time.Now()
	for time.Since(start) < d {
		for _, sql := range data.cycle(rng) {
			do(sql)
		}
	}
}

func (w queryWorkload) run(cfg *config) (*report, error) {
	data, err := w.generate(cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	reps := 0
	setup := func() (*instance, error) {
		dir := ""
		if data.disk {
			reps++
			dir = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", w.name, reps))
		}
		return load(data.table, dir)
	}
	var (
		in     *instance
		setupS float64
	)
	if cfg.trace {
		in, err = setup()
	} else {
		in, setupS, err = timeSetups(cfg.minSetupTime(), setup, (*instance).close)
	}
	if err != nil {
		return nil, err
	}
	defer in.close()

	r := newReport()
	ctx := context.Background()
	v := &verifier{data: data, seen: map[string]string{}, r: r}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Warm-up: the first cycle fills the caches, is excluded from timing,
	// and its answers form the digest compared with the golden.
	warm := newDigest()
	for _, sql := range data.cycle(rng) {
		res, err := in.db.QueryContext(ctx, sql)
		v.verify(sql, res, err)
		if err == nil {
			fmt.Fprintf(warm.h, "%s\n", sql)
			warm.result(res)
		}
	}
	checkGolden(cfg, r, w.name, warm.sum())

	if cfg.trace {
		return r, w.traced(cfg, in.db, data, rng, v)
	}
	var lats latencies
	var busy time.Duration
	rss := startRSS()
	runQueries(rng, data, cfg.duration(), func(sql string) {
		t0 := time.Now()
		res, err := in.db.QueryContext(ctx, sql)
		d := time.Since(t0)
		busy += d
		lats.add(d)
		v.verify(sql, res, err)
	})
	r.set("rss_mb", rss.median())
	r.set("setup_s", setupS)
	setOpMetrics(r, lats, busy)
	return r, nil
}

// traced measures the per-layer split: half the run sends queries through
// QueryContext untraced, the other half replays the next queries through
// the layers' public calls with a span around each.
func (w queryWorkload) traced(cfg *config, db *engine.DB, data *queryData, rng *rand.Rand, v *verifier) error {
	ctx := context.Background()
	tbl, _ := db.Table(data.table.name)
	half := cfg.duration() / 2

	var untraced time.Duration
	nUntraced := 0
	runQueries(rng, data, half, func(sql string) {
		t0 := time.Now()
		res, err := db.QueryContext(ctx, sql)
		untraced += time.Since(t0)
		nUntraced++
		v.verify(sql, res, err)
	})

	rt := newRuntimeCounters()
	tr := newTracer(rt)
	records := float64(tbl.NumRecords())
	before := db.CacheStats()
	gc0, busy0 := rt.cpu()
	var (
		scanned, entities, observations, sources float64
		samples, buckets                         float64
	)
	runQueries(rng, data, half, func(sql string) {
		var st replayStats
		res, err := tr.replay(ctx, db, sql, &st)
		tr.op++
		v.verify(sql, res, err)
		if err != nil {
			return
		}
		scanned += st.scannedFrac * records
		entities += float64(st.entities)
		observations += float64(st.observations)
		sources += float64(st.sources)
		// Bucket counts come from a second Buckets call outside any span.
		subs := []*engine.Result{res}
		for _, g := range res.Groups {
			subs = append(subs, g.Result)
		}
		for _, sub := range subs {
			if sub.Sample != nil {
				buckets += float64(len(core.Bucket{}.Buckets(sub.Sample)))
				samples++
			}
		}
	})
	gc1, busy1 := rt.cpu()
	after := db.CacheStats()

	ms, alloc := tr.selfTotals()
	n := float64(tr.op)
	r := v.r
	perOp := func(name string) float64 { return ms[name] / n }
	var tracedMs float64
	for _, s := range tr.spans {
		if s.Parent < 0 {
			tracedMs += float64(s.End-s.Start) / 1e6
		}
	}
	untracedMs := float64(untraced) / 1e6 / float64(nUntraced)

	r.set("sqlparse.parse_ms", perOp("sqlparse.parse"))
	r.set("engine.scan_ms", perOp("engine.scan"))
	r.set("engine.scan.alloc_kb", alloc["engine.scan"]/n/1024)
	r.set("engine.scan.rows_per_entity", ratio(scanned, entities))
	setCacheRatios(r, before, after)
	r.set("freqstats.entities", entities/n)
	r.set("freqstats.observations", observations/n)
	r.set("freqstats.sources", sources/n)
	r.set("species.ms", perOp("species"))
	r.set("core.naive_ms", perOp("core.naive"))
	r.set("core.freq_ms", perOp("core.freq"))
	r.set("core.bound_ms", perOp("core.bound"))
	r.set("core.bucket_ms", perOp("core.bucket"))
	r.set("core.bucket.alloc_mb", alloc["core.bucket"]/n/(1<<20))
	r.set("core.bucket.buckets", ratio(buckets, samples))
	r.set("core.mc_ms", perOp("core.mc"))
	r.set("core.mc.alloc_mb", alloc["core.mc"]/n/(1<<20))
	r.set("runtime.gc_cpu_frac", ratio(gc1-gc0, busy1-busy0))
	r.set("trace.overhead_frac", tracedMs/n/untracedMs-1)
	return tr.write(cfg.traceFile(w.name))
}
