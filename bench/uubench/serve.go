package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sqlparse"
)

// Stream shape of serve-ingest. With 256 regions the subscribed region
// holds ~780 of the population's entities, so its re-estimate stays
// cheaper than a batch's ingest. The preload mentions about two thirds of
// the population; the rest arrive during the run, so the table keeps
// gaining entities and the disk tier keeps sealing segments. Every
// markerEvery-th batch carries an entity never seen before in the
// subscribed region, so the subscribed estimate changes and the batch's
// arrival at the subscriber can be timed.
const (
	servePopulation = 200000
	serveRegions    = 256
	serveSources    = 24
	serveBatchRows  = 500
	markerEvery     = 10
	subscribeSQL    = "SELECT AVG(v) FROM obs WHERE region = 'r-007'"
	watchedRegion   = "r-007"
)

var serveSchema = engine.Schema{{Name: "region", Type: engine.TypeString}, {Name: "v", Type: engine.TypeFloat}}

// streamRow is one generated observation of serve-ingest.
type streamRow struct {
	entity, source, region string
	v                      float64
}

// stream generates serve-ingest's observations from a seed: entities of a
// sim ground truth drawn by publicity, sources drawn by a Zipf weighting.
// It keeps the oracle of what the daemon must hold: the number of
// distinct (entity, source) pairs, which is the number of observations
// (a source mentions an entity once, so a repeated pair adds none), and
// the watched region's distinct entities with the sum of their values.
type stream struct {
	truth    *sim.GroundTruth
	regions  []string
	entities *randx.AliasSampler
	sources  *randx.AliasSampler
	rng      *rand.Rand
	pairs    []uint64 // bitset over entity*serveSources+source
	seen     []bool   // entity mentioned at least once
	batches  int
	markers  int

	observations int
	watchedCount int
	watchedSum   float64
}

func region(entity string) string {
	h := fnv.New32a()
	io.WriteString(h, entity)
	return fmt.Sprintf("r-%03d", h.Sum32()%serveRegions)
}

func newStream(seed int64, quick bool) (*stream, error) {
	n := servePopulation
	if quick {
		n = 2000
	}
	truth, err := sim.NewGroundTruth(randx.New(seed), sim.Config{N: n, Lambda: 1, Rho: 0.5})
	if err != nil {
		return nil, err
	}
	pub := make([]float64, n)
	regions := make([]string, n)
	for i, it := range truth.Items {
		pub[i] = it.Publicity
		regions[i] = region(it.ID)
	}
	entities, err := randx.NewAliasSampler(pub)
	if err != nil {
		return nil, err
	}
	sources, err := randx.NewAliasSampler(randx.ZipfWeights(serveSources, 1))
	if err != nil {
		return nil, err
	}
	return &stream{
		truth:    truth,
		regions:  regions,
		entities: entities,
		sources:  sources,
		rng:      randx.New(seed + 1),
		pairs:    make([]uint64, (n*serveSources+63)/64),
		seen:     make([]bool, n),
	}, nil
}

func sourceName(i int) string { return fmt.Sprintf("src-%02d", i) }

// warmBatches is the number of untimed batches before the measured run.
func warmBatches(quick bool) int {
	if quick {
		return 20
	}
	return 200
}

func (s *stream) watch(row streamRow) {
	if row.region == watchedRegion {
		s.watchedCount++
		s.watchedSum += row.v
	}
}

// next draws an entity by publicity and a source.
func (s *stream) next() streamRow {
	e, src := s.entities.Draw(s.rng), s.sources.Draw(s.rng)
	if k := e*serveSources + src; s.pairs[k/64]&(1<<(k%64)) == 0 {
		s.pairs[k/64] |= 1 << (k % 64)
		s.observations++
	}
	it := s.truth.Items[e]
	row := streamRow{entity: it.ID, source: sourceName(src), region: s.regions[e], v: it.Value}
	if !s.seen[e] {
		s.seen[e] = true
		s.watch(row)
	}
	return row
}

// marker introduces an entity from outside the ground truth whose
// identity hashes into the watched region.
func (s *stream) marker() streamRow {
	s.markers++
	s.observations++
	v := s.truth.Items[s.entities.Draw(s.rng)].Value
	src := sourceName(s.sources.Draw(s.rng))
	for j := 0; ; j++ {
		if id := fmt.Sprintf("new-%06d-%d", s.markers, j); region(id) == watchedRegion {
			row := streamRow{entity: id, source: src, region: watchedRegion, v: v}
			s.watch(row)
			return row
		}
	}
}

// batch returns the next ingest batch and whether it carries a marker.
func (s *stream) batch() ([]streamRow, bool) {
	s.batches++
	marked := s.batches%markerEvery == 0
	rows := make([]streamRow, 0, serveBatchRows)
	for len(rows) < serveBatchRows {
		if marked && len(rows) == serveBatchRows-1 {
			rows = append(rows, s.marker())
			continue
		}
		rows = append(rows, s.next())
	}
	return rows, marked
}

func ndjson(rows []streamRow) []byte {
	var b []byte
	for _, r := range rows {
		b = append(b, `{"entity":"`...)
		b = append(b, r.entity...)
		b = append(b, `","source":"`...)
		b = append(b, r.source...)
		b = append(b, `","attrs":{"region":"`...)
		b = append(b, r.region...)
		b = append(b, `","v":`...)
		b = strconv.AppendFloat(b, r.v, 'f', -1, 64)
		b = append(b, "}}\n"...)
	}
	return b
}

// preload draws the rows loaded before the first timed batch, one per
// entity of the population, as request bodies of 5000 rows.
func (s *stream) preload() [][]streamRow {
	n := len(s.truth.Items)
	var out [][]streamRow
	for n > 0 {
		k := min(n, 5000)
		rows := make([]streamRow, k)
		for i := range rows {
			rows[i] = s.next()
		}
		out = append(out, rows)
		n -= k
	}
	return out
}

// sseEvent is one estimate the subscriber received.
type sseEvent struct {
	at       time.Time
	count    int
	observed float64
	data     []byte
}

// subscriber reads the SSE stream of the subscribed query on its own
// connection.
type subscriber struct {
	mu     sync.Mutex
	events []sseEvent
	signal chan struct{} // capacity 1: an event arrived since the last wait
	cancel context.CancelFunc
	done   chan struct{}
}

func subscribe(client *http.Client, base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?sql="+url.QueryEscape(subscribeSQL), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	sub := &subscriber{signal: make(chan struct{}, 1), cancel: cancel, done: make(chan struct{})}
	go sub.read(resp.Body)
	return sub, nil
}

func (s *subscriber) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReader(body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "estimate":
			data := []byte(strings.TrimPrefix(line, "data: "))
			var ev struct {
				Observed  float64 `json:"observed"`
				Estimates map[string]struct {
					CountObserved int `json:"count_observed"`
				} `json:"estimates"`
			}
			if json.Unmarshal(data, &ev) != nil {
				continue
			}
			s.mu.Lock()
			s.events = append(s.events, sseEvent{time.Now(), ev.Estimates["bucket"].CountObserved, ev.Observed, data})
			s.mu.Unlock()
			select {
			case s.signal <- struct{}{}:
			default:
			}
		}
	}
}

// waitFor blocks until an event reports at least count watched entities
// waitFor blocks until the latest estimate satisfies ok and returns it.
func (s *subscriber) waitFor(ok func(sseEvent) bool, timeout time.Duration) (sseEvent, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		n := len(s.events)
		var last sseEvent
		if n > 0 {
			last = s.events[n-1]
		}
		s.mu.Unlock()
		if n > 0 && ok(last) {
			return last, nil
		}
		select {
		case <-s.signal:
		case <-deadline.C:
			return sseEvent{}, fmt.Errorf("subscriber did not reach the expected estimate within %v", timeout)
		}
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// serveInstance is one running daemon with a durable disk tenant, loaded
// and subscribed.
type serveInstance struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	sub    *subscriber
	dir    string
	// baseline is the subscription's first estimate, over the preload.
	baseline sseEvent
}

func (in *serveInstance) close() {
	if in.sub != nil {
		in.sub.close()
	}
	in.ts.Close()
	in.srv.Shutdown(context.Background())
	os.RemoveAll(in.dir)
}

func (in *serveInstance) post(path string, body []byte) (int, []byte, error) {
	resp, err := in.client.Post(in.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// ingest posts one NDJSON batch and checks the acknowledgement.
func (in *serveInstance) ingest(body []byte, rows int) error {
	status, raw, err := in.post("/v1/ingest?table=obs", body)
	if err != nil {
		return err
	}
	var ack struct {
		Rows int `json:"rows"`
	}
	if status != http.StatusOK || json.Unmarshal(raw, &ack) != nil || ack.Rows != rows {
		return fmt.Errorf("ingest: status %d: %s", status, bytes.TrimSpace(raw))
	}
	return nil
}

// startServe starts a daemon, creates the table, loads the preload and
// opens the subscription, returning once the baseline estimate arrived.
func startServe(dir string, preload [][]byte, preloadRows []int, watched int) (*serveInstance, error) {
	// A tenant recovers durable tables it finds on disk; start from none.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Backend: engine.StorageConfig{Backend: engine.BackendDisk, Dir: dir, Durable: true},
		Logger:  log.New(io.Discard, "", 0),
	})
	ts := httptest.NewServer(srv)
	in := &serveInstance{srv: srv, ts: ts, client: ts.Client(), dir: dir}
	fail := func(err error) (*serveInstance, error) {
		in.close()
		return nil, err
	}
	status, raw, err := in.post("/v1/tables", []byte(`{"name":"obs","schema":[{"name":"region","type":"string"},{"name":"v","type":"float"}]}`))
	if err != nil {
		return fail(err)
	}
	if status != http.StatusCreated {
		return fail(fmt.Errorf("create table: status %d: %s", status, raw))
	}
	for i, body := range preload {
		if err := in.ingest(body, preloadRows[i]); err != nil {
			return fail(err)
		}
	}
	if in.sub, err = subscribe(in.client, ts.URL); err != nil {
		return fail(err)
	}
	if in.baseline, err = in.sub.waitFor(func(ev sseEvent) bool { return ev.count >= watched }, 30*time.Second); err != nil {
		return fail(err)
	}
	return in, nil
}

// sentBatch is one timed ingest request.
type sentBatch struct {
	start, ack time.Time
	watched    int // watched-region entities once this batch is applied
}

type serveWorkload struct{}

func (serveWorkload) run(cfg *config) (*report, error) {
	s, err := newStream(cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	var counts []int
	for _, rows := range s.preload() {
		bodies = append(bodies, ndjson(rows))
		counts = append(counts, len(rows))
	}
	watched := s.watchedCount
	userBytes := 0
	for _, b := range bodies {
		userBytes += len(b)
	}

	reps := 0
	setup := func() (*serveInstance, error) {
		reps++
		return startServe(filepath.Join(cfg.work, fmt.Sprintf("serve-ingest-%d", reps)), bodies, counts, watched)
	}
	var (
		in     *serveInstance
		setupS float64
	)
	if cfg.trace {
		in, err = setup()
	} else {
		in, setupS, err = timeSetups(cfg.minSetupTime(), setup, (*serveInstance).close)
	}
	if err != nil {
		return nil, err
	}
	defer in.close()

	r := newReport()
	d := newDigest()
	d.h.Write(in.baseline.data)
	checkGolden(cfg, r, "serve-ingest", d.sum())

	dur := cfg.duration()
	if cfg.trace {
		dur /= 2
	}
	send := func() (sentBatch, bool, error) {
		rows, marker := s.batch()
		body := ndjson(rows)
		userBytes += len(body)
		b := sentBatch{start: time.Now(), watched: s.watchedCount}
		err := in.ingest(body, len(rows))
		b.ack = time.Now()
		r.attempted++
		if err != nil {
			r.fail("batch %d: %v", s.batches, err)
		}
		return b, marker, err
	}
	// The warm-up is a fixed number of untimed batches. Resident memory is
	// sampled over it, so the memory metric sees the same table size
	// whatever the ingest rate.
	rss := startRSS()
	for i := 0; i < warmBatches(cfg.quick); i++ {
		send()
	}
	rssMB := rss.median()

	var (
		acks, lags latencies
		busy       time.Duration
		marked     []sentBatch
	)
	start := time.Now()
	for time.Since(start) < dur {
		b, marker, err := send()
		if err != nil {
			continue
		}
		acks.add(b.ack.Sub(b.start))
		busy += b.ack.Sub(b.start)
		if marker {
			marked = append(marked, b)
		}
	}

	// The run ends once the subscriber has seen the last batch. A marked
	// batch is visible at the first estimate that counts its marker.
	checkServeFinal(r, in, s)
	in.sub.mu.Lock()
	events := in.sub.events
	in.sub.mu.Unlock()
	j := 0
	for _, b := range marked {
		for j < len(events) && events[j].count < b.watched {
			j++
		}
		if j == len(events) {
			break // reported by checkServeFinal
		}
		lags.add(max(0, events[j].at.Sub(b.ack)))
	}

	if cfg.trace {
		sort.Float64s(lags)
		sort.Float64s(acks)
		r.set("engine.subscribe.emit_lag_p50_ms", percentile(lags, 0.5))
		r.set("engine.subscribe.emit_lag_p90_ms", percentile(lags, 0.9))
		ackP50 := percentile(acks, 0.5)
		r.set("server.ack_p50_ms", ackP50)
		bytes, _, err := dirBytes(in.dir, "")
		if err != nil {
			return nil, err
		}
		r.set("engine.storage.disk_bytes_per_user_byte", float64(bytes)/float64(userBytes))
		return r, inProcessIngest(cfg, r, ackP50, dur)
	}
	r.set("setup_s", setupS)
	setOpMetrics(r, acks, busy)
	r.set("rss_mb", rssMB)
	return r, nil
}

// checkServeFinal checks the daemon's state after the last batch: every
// acknowledged observation is stored, a direct query of the subscribed
// SQL covers exactly the watched entities with the oracle's observed
// average, and the subscriber receives that same estimate.
func checkServeFinal(r *report, in *serveInstance, s *stream) {
	resp, err := in.client.Get(in.ts.URL + "/v1/stats")
	if err != nil {
		r.problem("stats: %v", err)
		return
	}
	var stats struct {
		Tenants map[string]struct {
			Tables map[string]struct {
				Observations int `json:"observations"`
			} `json:"tables"`
		} `json:"tenants"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		r.problem("stats: %v", err)
		return
	}
	if got := stats.Tenants["default"].Tables["obs"].Observations; got != s.observations {
		r.problem("table holds %d observations, the acknowledged rows carry %d", got, s.observations)
	}
	status, raw, err := in.post("/v1/query", []byte(`{"sql":"`+subscribeSQL+`"}`))
	if err != nil || status != http.StatusOK {
		r.problem("final query: status %d: %v", status, err)
		return
	}
	var direct any
	if err := json.Unmarshal(raw, &direct); err != nil {
		r.problem("final query: %v", err)
		return
	}
	final, err := in.sub.waitFor(func(ev sseEvent) bool {
		var streamed any
		return json.Unmarshal(ev.data, &streamed) == nil && reflect.DeepEqual(direct, streamed)
	}, 30*time.Second)
	if err != nil {
		r.problem("final query: %v", err)
		return
	}
	if want := s.watchedSum / float64(s.watchedCount); final.count != s.watchedCount || final.observed != want {
		r.problem("final estimate covers %d entities with average %v, oracle %d and %v",
			final.count, final.observed, s.watchedCount, want)
	}
}

// inProcessIngest is serve-ingest's traced pass: the same stream applied
// in process, without HTTP, to a durable disk table with the daemon's
// tenant options. Each batch is appended through a Writer, flushed, and
// followed by the subscribed query, with a span around each.
func inProcessIngest(cfg *config, r *report, ackP50 float64, dur time.Duration) error {
	s, err := newStream(cfg.seed, cfg.quick)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.work, "serve-ingest-inprocess")
	defer os.RemoveAll(dir)
	db := engine.Open(
		engine.WithIngest(engine.IngestConfig{}),
		engine.WithResultCache(16<<20),
		engine.WithBackend(engine.StorageConfig{Backend: engine.BackendDisk, Dir: dir, Durable: true}),
	)
	defer db.Close()
	tbl, err := db.CreateTable("obs", serveSchema)
	if err != nil {
		return err
	}
	appendRows := func(w *engine.Writer, rows []streamRow, attrs []map[string]sqlparse.Value) error {
		for i, row := range rows {
			if err := w.Append(row.entity, row.source, attrs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	load := func(rows []streamRow) error {
		w := tbl.NewWriter()
		if err := appendRows(w, rows, attrMaps(rows)); err != nil {
			return err
		}
		return w.Flush()
	}
	for _, rows := range s.preload() {
		if err := load(rows); err != nil {
			return err
		}
	}
	for i := 0; i < warmBatches(cfg.quick); i++ {
		rows, _ := s.batch()
		if err := load(rows); err != nil {
			return err
		}
	}

	ctx := context.Background()
	rt := newRuntimeCounters()
	tr := newTracer(rt)
	wchar0, syscw0 := procIO()
	ingest0 := tbl.IngestStats()
	cache0 := db.CacheStats()
	gc0, busy0 := rt.cpu()
	userBytes := 0
	start := time.Now()
	for time.Since(start) < dur {
		rows, _ := s.batch()
		userBytes += len(ndjson(rows))
		attrs := attrMaps(rows)
		w := tbl.NewWriter()
		var res *engine.Result
		tr.begin("batch")
		tr.span("engine.ingest.append", func() { err = appendRows(w, rows, attrs) })
		if err == nil {
			tr.span("engine.ingest.flush", func() { err = w.Flush() })
		}
		if err == nil {
			tr.span("engine.subscribe.reexec", func() { res, err = db.QueryContext(ctx, subscribeSQL) })
		}
		tr.end()
		tr.op++
		r.attempted++
		if err != nil {
			r.fail("in-process batch %d: %v", tr.op, err)
			continue
		}
		want := s.watchedSum / float64(s.watchedCount)
		if got := res.Estimates["bucket"].CountObserved; got != s.watchedCount || res.Observed != want {
			r.fail("in-process batch %d: %d entities, average %v; oracle %d, %v", tr.op, got, res.Observed, s.watchedCount, want)
		}
	}
	gc1, busy1 := rt.cpu()
	cache1 := db.CacheStats()
	ingest1 := tbl.IngestStats()
	wchar1, syscw1 := procIO()
	if err := tr.write(cfg.traceFile("serve-ingest")); err != nil {
		return err
	}
	_, segments, err := dirBytes(dir, ".seg")
	if err != nil {
		return err
	}

	batches := float64(tr.op)
	appendP50 := percentile(tr.durations("engine.ingest.append"), 0.5)
	flushP50 := percentile(tr.durations("engine.ingest.flush"), 0.5)
	r.set("engine.ingest.append_ms", appendP50)
	r.set("engine.ingest.flush_ms", flushP50)
	r.set("engine.ingest.batches_per_flush", float64(ingest1.Batches-ingest0.Batches)/batches)
	r.set("engine.storage.write_bytes_per_user_byte", (wchar1-wchar0)/float64(userBytes))
	r.set("engine.storage.write_syscalls_per_batch", (syscw1-syscw0)/batches)
	r.set("engine.storage.segment_files", float64(segments))
	r.set("engine.subscribe.reexec_ms", percentile(tr.durations("engine.subscribe.reexec"), 0.5))
	r.set("server.overhead_ms", ackP50-appendP50-flushP50)
	setCacheRatios(r, cache0, cache1)
	r.set("runtime.gc_cpu_frac", ratio(gc1-gc0, busy1-busy0))
	return nil
}

// attrMaps builds the attribute maps the daemon's ingest handler builds
// from each NDJSON line.
func attrMaps(rows []streamRow) []map[string]sqlparse.Value {
	out := make([]map[string]sqlparse.Value, len(rows))
	for i, row := range rows {
		out[i] = map[string]sqlparse.Value{"region": sqlparse.StringValue(row.region), "v": sqlparse.Number(row.v)}
	}
	return out
}
