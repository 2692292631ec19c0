package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/species"
	"repro/internal/sqlparse"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the enclosing span, -1 for an operation's root.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	alloc  uint64 // heap bytes allocated while the span was open
}

// tracer records spans in memory around calls the benchmark makes into
// each layer, and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	rt    *runtimeCounters
	spans []span
	op    int
	open  []int    // stack of open span indices
	alloc []uint64 // heap-allocation counter when each open span began
}

func newTracer(rt *runtimeCounters) *tracer {
	return &tracer{epoch: time.Now(), rt: rt}
}

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent})
	t.alloc = append(t.alloc, t.rt.allocBytes())
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.epoch))
}

func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.End = now
	s.alloc = t.rt.allocBytes() - t.alloc[n]
	t.open, t.alloc = t.open[:n], t.alloc[:n]
}

// span times fn as one call into the named layer.
func (t *tracer) span(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// selfTotals returns, per span name, the summed self time (the span's
// duration minus its children's) and self-allocated bytes.
func (t *tracer) selfTotals() (ms, allocBytes map[string]float64) {
	ms, allocBytes = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		ms[s.Name] += d
		allocBytes[s.Name] += float64(s.alloc)
		if s.Parent >= 0 {
			p := t.spans[s.Parent].Name
			ms[p] -= d
			allocBytes[p] -= float64(s.alloc)
		}
	}
	return ms, allocBytes
}

// durations returns the sorted durations, in milliseconds, of the spans
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayStats counts the work of one replayed query.
type replayStats struct {
	entities, observations, sources int
	// scannedFrac is the share of shards the scan read cold (1 when the
	// scan used no partial cache at all).
	scannedFrac float64
}

// replay runs one query through the public calls in the executor's order
// (parse, scan, then each estimator and the bound, serially), with a span
// around each call, and assembles the Result the executor would return.
// The executor fans estimators out in parallel; the replay's serial sum is
// the work that fan-out spreads over the cores.
func (t *tracer) replay(ctx context.Context, db *engine.DB, sql string, st *replayStats) (*engine.Result, error) {
	t.begin("query")
	defer t.end()
	var (
		q   *sqlparse.Query
		err error
	)
	t.span("sqlparse.parse", func() { q, err = sqlparse.Parse(sql) })
	if err != nil {
		return nil, err
	}
	tbl, ok := db.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", q.Table)
	}
	attr := q.Attr
	if attr == "*" {
		attr = ""
	}
	before := tbl.CacheStats()
	var samples []*freqstats.Sample
	var groups []engine.GroupSample
	if q.GroupBy != "" {
		t.span("engine.scan", func() { groups, err = tbl.GroupedSamplesContext(ctx, attr, q.GroupBy, q.Where) })
		for _, g := range groups {
			samples = append(samples, g.Sample)
		}
	} else {
		var s *freqstats.Sample
		t.span("engine.scan", func() { s, err = tbl.SampleContext(ctx, attr, q.Where) })
		samples = append(samples, s)
	}
	if err != nil {
		return nil, err
	}
	after := tbl.CacheStats()
	hits, misses := after.PartialHits-before.PartialHits, after.PartialMisses-before.PartialMisses
	st.scannedFrac = 1
	if hits+misses > 0 {
		st.scannedFrac = float64(misses) / float64(hits+misses)
	}

	results := make([]*engine.Result, len(samples))
	for i, s := range samples {
		if results[i], err = t.estimate(q, s); err != nil {
			return nil, err
		}
		st.entities += s.C()
		st.observations += s.N()
		st.sources += s.NumSources()
	}
	if q.GroupBy == "" {
		return results[0], nil
	}
	res := &engine.Result{Query: q, Groups: make([]engine.GroupResult, len(groups))}
	for i, g := range groups {
		res.Groups[i] = engine.GroupResult{Key: g.Key, Result: results[i]}
	}
	return res, nil
}

// estimate mirrors the executor's per-sample estimation: coverage, then
// the aggregate's estimator calls with DefaultEstimators.
func (t *tracer) estimate(q *sqlparse.Query, s *freqstats.Sample) (*engine.Result, error) {
	res := &engine.Result{Query: q, Estimates: map[string]core.Estimate{}, Sample: s}
	t.span("species", func() {
		if cov, ok := species.Coverage(s); ok {
			res.Coverage = cov
		}
	})
	each := func(run func(core.SumEstimator) core.Estimate) {
		for _, est := range engine.DefaultEstimators() {
			t.span("core."+est.Name(), func() { res.Estimates[est.Name()] = run(est) })
		}
	}
	switch q.Agg {
	case sqlparse.AggSum:
		res.Observed = s.SumValues()
		each(func(est core.SumEstimator) core.Estimate { return est.EstimateSum(s) })
		t.span("core.bound", func() { res.Bound = core.UpperBound{}.Bound(s) })
	case sqlparse.AggCount:
		res.Observed = float64(s.C())
		each(func(est core.SumEstimator) core.Estimate { return core.CountEstimate(est, s) })
		t.span("species", func() {
			if iv := species.Chao84Interval(s, 1.96); iv.Valid {
				res.CountInterval = &iv
			}
		})
	case sqlparse.AggAvg:
		if s.C() > 0 {
			res.Observed = s.SumValues() / float64(s.C())
		}
		each(func(est core.SumEstimator) core.Estimate { return core.AvgEstimate(est, s) })
	case sqlparse.AggMin, sqlparse.AggMax:
		var ext core.ExtremeResult
		t.span("core.bucket", func() {
			if q.Agg == sqlparse.AggMin {
				ext = core.MinEstimate(core.Bucket{}, s)
			} else {
				ext = core.MaxEstimate(core.Bucket{}, s)
			}
		})
		res.Extreme = &ext
		res.Observed = ext.Observed
	case sqlparse.AggMedian:
		var (
			qr  core.QuantileResult
			err error
		)
		t.span("core.bucket", func() { qr, err = core.MedianEstimate(core.Bucket{}, s) })
		if err != nil {
			return nil, err
		}
		res.Observed = qr.Observed
		res.Estimates["median"] = core.Estimate{
			Delta:          qr.Estimated - qr.Observed,
			Observed:       qr.Observed,
			Estimated:      qr.Estimated,
			CountObserved:  s.C(),
			CountEstimated: qr.CountEstimated,
			Coverage:       res.Coverage,
			Valid:          qr.Valid,
			Diverged:       qr.Diverged,
			LowCoverage:    qr.LowCoverage,
		}
	default:
		return nil, fmt.Errorf("unsupported aggregate %q", q.Agg)
	}
	return res, nil
}
