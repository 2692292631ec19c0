package engine

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/freqstats"
	"repro/internal/species"
	"repro/internal/sqlparse"
)

// DB is a catalog of tables. Every setting is fixed when the DB is built
// by Open and its With* options; the zero value is an empty in-memory
// database equal to Open().
type DB struct {
	tables map[string]*Table
	// storage selects the shard-storage backend for tables created through
	// this DB (CreateTable and snapshot Load); the zero value is the
	// in-memory default (WithBackend).
	storage StorageConfig
	// dropped holds tables removed from the catalog whose storage has not
	// been released yet (see DropTable); Close drains it.
	dropped []*Table
	// ests are the unknown-unknowns estimators attached to query results;
	// nil means DefaultEstimators (WithEstimators).
	ests []core.SumEstimator
	// results is the opt-in whole-result cache (WithResultCache); nil
	// when disabled.
	results *resultCache
	// ingestCfg holds the Open-time per-table option WithIngest, applied
	// to each table at CreateTable/Load adoption; ingesters collects the
	// auto-started Ingesters so Close can stop them (flushing their staged
	// tails) before releasing table storage.
	ingestCfg *IngestConfig
	ingesters []*Ingester
	// flushOnQuery drains the queried table's ingestion staging before
	// each query scan (WithFlushOnQuery).
	flushOnQuery bool
}

// CacheStats aggregates cache counters across every registered table's
// scan caches plus the result cache (zero-valued fields when disabled).
func (db *DB) CacheStats() CacheStats {
	var stats CacheStats
	for _, t := range db.tables {
		stats.add(t.CacheStats())
	}
	if db.results != nil {
		stats.add(db.results.stats())
	}
	return stats
}

// DefaultEstimators returns the paper's four SUM estimators in their
// default configurations.
func DefaultEstimators() []core.SumEstimator {
	return []core.SumEstimator{
		core.Naive{},
		core.Frequency{},
		core.Bucket{},
		core.MonteCarlo{},
	}
}

// CreateTable creates and registers a new table on the DB's configured
// storage backend.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if db.tables == nil {
		db.tables = make(map[string]*Table)
	}
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("engine: table %q %w", name, ErrTableExists)
	}
	t, err := NewTableWithStorage(name, schema, db.storage)
	if err != nil {
		return nil, err
	}
	if err := db.adoptTable(t); err != nil {
		t.discardStorage()
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// Close releases every registered table's storage resources (disk-backend
// mappings; a no-op for in-memory tables), including tables dropped from
// the catalog earlier. Ingesters the DB started through WithIngest are
// closed first — applying everything still staged — so a DB closed
// mid-stream loses no appended observations. The DB must not be queried
// afterwards.
func (db *DB) Close() error {
	var firstErr error
	for _, ing := range db.ingesters {
		if err := ing.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.ingesters = nil
	for _, name := range db.TableNames() {
		if err := db.tables[name].Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, t := range db.dropped {
		if err := t.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.dropped = nil
	return firstErr
}

// StorageBackend reports the backend the DB creates tables on, resolved
// to a concrete implementation (the zero config reads as mem).
func (db *DB) StorageBackend() Backend {
	return resolveStorage(db.storage).Backend
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// DropTable removes a table from the catalog. It returns an error if the
// table does not exist; handles obtained earlier keep working but the
// table no longer answers queries through the database. The dropped
// table's storage is NOT released here (live handles may still scan it);
// it stays owned by the DB and is released by DB.Close.
func (db *DB) DropTable(name string) error {
	t, ok := db.tables[name]
	if !ok {
		return fmt.Errorf("engine: %w %q", ErrUnknownTable, name)
	}
	delete(db.tables, name)
	db.dropped = append(db.dropped, t)
	return nil
}

// TableNames returns the registered table names, sorted.
func (db *DB) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Result is an open-world query answer: the traditional (closed-world)
// observed value plus everything the paper's techniques can say about the
// unknown unknowns.
type Result struct {
	// Query is the parsed query that was executed.
	Query *sqlparse.Query
	// Observed is the closed-world answer over the integrated database K.
	Observed float64
	// Estimates holds each estimator's corrected answer, keyed by
	// estimator name. Populated for SUM, COUNT and AVG queries.
	Estimates map[string]core.Estimate
	// Bound is the Section 4 upper bound; only meaningful for SUM.
	Bound core.BoundResult
	// CountInterval is the Chao87 log-normal 95% confidence interval on
	// the unique-entity count; only set for COUNT queries.
	CountInterval *species.CountInterval
	// Extreme is the MIN/MAX trust analysis; only set for MIN/MAX queries.
	Extreme *core.ExtremeResult
	// Coverage is the Good-Turing sample coverage of the predicate's
	// sub-population.
	Coverage float64
	// Warnings lists human-readable caveats (low coverage, divergence,
	// streaker suspicion).
	Warnings []string
	// Sample is the observation multiset the estimates were computed
	// from, for callers that want to drill down.
	Sample *freqstats.Sample
	// Groups holds per-group results for GROUP BY queries (the scalar
	// fields above are then zero — each group carries its own numbers).
	Groups []GroupResult
}

// GroupResult is one group of a GROUP BY query result.
type GroupResult struct {
	// Key is the grouping column's value.
	Key sqlparse.Value
	// Result is the group's open-world aggregate result.
	Result *Result
}

// Best returns the estimate the paper's Section 6.5 guidance would pick:
// the bucket estimator when sources contribute evenly, the Monte-Carlo
// estimate when the source contributions are imbalanced (streakers).
func (r *Result) Best() (core.Estimate, string, bool) {
	if len(r.Estimates) == 0 {
		return core.Estimate{}, "", false
	}
	name := "bucket"
	if r.streakerSuspected() {
		name = "mc"
	}
	if e, ok := r.Estimates[name]; ok {
		return e, name, true
	}
	// Fall back to any present estimator, in a deterministic order.
	names := make([]string, 0, len(r.Estimates))
	for n := range r.Estimates {
		names = append(names, n)
	}
	sort.Strings(names)
	return r.Estimates[names[0]], names[0], true
}

// streakerSuspected reports whether one source contributed an outsized
// share of the observations: either more than StreakerShare of |S|
// outright, or more than StreakerFairShareFactor times its fair share n/l
// (a source 5x above average is a streaker even when diluted among many
// sources, as in the paper's GDP experiment).
func (r *Result) streakerSuspected() bool {
	if r.Sample == nil {
		return false
	}
	n := r.Sample.N()
	if n == 0 {
		// An empty sub-population has no source profile at all; "no records
		// match" must not claim a streaker (and steer Best toward MC).
		return false
	}
	sizes := r.Sample.SourceSizes()
	if len(sizes) < MinSourcesForBalance {
		return true // too few sources: with-replacement approximation is off
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	return streakyShare(maxSize, n, len(sizes))
}

// streakyShare is the shared streaker criterion for results and
// diagnoses.
func streakyShare(maxSize, n, sources int) bool {
	if n == 0 || sources == 0 {
		return false
	}
	if float64(maxSize) >= StreakerShare*float64(n) {
		return true
	}
	fair := float64(n) / float64(sources)
	return float64(maxSize) >= StreakerFairShareFactor*fair
}

// StreakerShare is the fraction of |S| a single source must contribute to
// be considered a streaker outright.
const StreakerShare = 0.33

// StreakerFairShareFactor is how many times its fair share (|S|/l) a
// source must exceed to be considered a streaker among many sources.
const StreakerFairShareFactor = 5.0

// MinSourcesForBalance is the minimum number of sources for the
// with-replacement approximation to be considered sound (the paper's
// Appendix E finds ~5 sources often suffice).
const MinSourcesForBalance = 5

// Query parses and executes an aggregate query in the open world.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: parse failures classify as
// ErrParse, and cancellation/deadline expiry is observed at the shard-scan
// and estimator fan-out boundaries (see ExecuteContext).
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, wrapParse(err)
	}
	return db.ExecuteContext(ctx, q)
}

// Execute runs a parsed query. The cache ladder makes repeats graceful
// rather than all-or-nothing: the epoch vector is captured once under the
// scan locks, a fully clean table answers straight from the result cache,
// and any epoch movement falls through to sampleWithEpochs — which pulls
// warm partials for the clean shards, rescans only the dirty ones, and
// re-merges (see scanPartials). The result cache is thereby a fast path
// on top of an already-incremental scan, not the only alternative to a
// full rescan.
func (db *DB) Execute(q *sqlparse.Query) (*Result, error) {
	return db.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute under a context. Cancellation is observed at
// the engine's natural unit boundaries — before each shard scan, between
// per-group executions and between estimator fan-out tasks — and returns
// ctx.Err(). A unit that already started runs to completion, so every
// cache publication (a frozen partial, a whole result) is a complete
// value built under the scan's locks: cancellation can abandon a query
// but can never leave a half-built entry behind for the next one.
func (db *DB) ExecuteContext(ctx context.Context, q *sqlparse.Query) (*Result, error) {
	t, ok := db.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("engine: %w %q", ErrUnknownTable, q.Table)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attr := q.Attr
	if attr == "*" {
		attr = ""
	}
	if db.flushOnQuery {
		// The drain barrier runs before the epoch vector is captured, so
		// the cache lookup below already sees the post-drain epochs and
		// can never serve a pre-drain result to a read-your-writes query.
		// drainAll (not Flush): conflict warnings stay queued for the
		// writer's own Flush.
		t.drainAll()
	}
	rc := db.results
	var baseKey resultKey
	if rc != nil {
		baseKey = resultKey{table: t.id, query: q.String()}
		lookup := baseKey
		lookup.epochs = t.epochVector()
		if res, ok := rc.lookup(lookup); ok {
			if err := verifyCachedResult(t, attr, q, res, lookup.epochs); err != nil {
				return nil, err
			}
			return res, nil
		}
	}
	if q.GroupBy != "" {
		groups, epochs, err := t.groupedSamplesWithEpochs(ctx, attr, q.GroupBy, q.Where)
		if err != nil {
			return nil, err
		}
		res := &Result{Query: q, Groups: make([]GroupResult, len(groups))}
		// Groups are independent: estimate them in parallel. Each group
		// additionally fans its estimators out, but nested parallelFor
		// calls draw from one shared slot pool, so total engine
		// parallelism stays ~GOMAXPROCS. (A MonteCarlo estimator's own
		// Workers bound is separate — its grid cells run inside the
		// estimator's slot.)
		err = parallelForCtx(ctx, len(groups), func(i int) error {
			sub, err := db.executeOnSample(ctx, q, groups[i].Sample)
			if err != nil {
				return err
			}
			res.Groups[i] = GroupResult{Key: groups[i].Key, Result: sub}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(res.Groups) == 0 {
			res.Warnings = []string{"no records match the predicate; estimates are meaningless"}
			res.Groups = nil
		}
		if rc != nil {
			baseKey.epochs = epochs
			rc.store(baseKey, res)
		}
		return res, nil
	}
	sample, epochs, err := t.sampleWithEpochs(ctx, attr, q.Where)
	if err != nil {
		return nil, err
	}
	res, err := db.executeOnSample(ctx, q, sample)
	if err != nil {
		return nil, err
	}
	if rc != nil {
		// Keyed by the epochs observed under the scan's read locks, so the
		// entry corresponds to exactly the data version the result was
		// computed from even if writers landed since.
		baseKey.epochs = epochs
		rc.store(baseKey, res)
	}
	return res, nil
}

// estimators returns the active estimator set (WithEstimators or the
// paper's defaults).
func (db *DB) estimators() []core.SumEstimator {
	if db.ests != nil {
		return db.ests
	}
	return DefaultEstimators()
}

// verifyCachedResult is the result cache's test-time guard: with the
// engine's selfCheck enabled (see table.go), a non-grouped cache hit
// re-scans the table and compares sample fingerprints, proving the epoch
// keying never serves a result for data that has since changed. The
// comparison only counts when the re-scan observed the same epochs the
// hit was keyed by — a writer landing in between makes the pair
// incomparable, not wrong.
func verifyCachedResult(t *Table, attr string, q *sqlparse.Query, res *Result, epochs [numShards]uint64) error {
	if !selfCheck || res.Sample == nil {
		return nil
	}
	fresh, freshEpochs, err := t.sampleWithEpochs(context.Background(), attr, q.Where)
	if err != nil {
		return err
	}
	if freshEpochs != epochs {
		return nil
	}
	if fresh.Fingerprint() != res.Sample.Fingerprint() {
		return fmt.Errorf("engine: result cache self-check failed: cached sample fingerprint %x != fresh %x for %s",
			res.Sample.Fingerprint(), fresh.Fingerprint(), q)
	}
	return nil
}

// executeOnSample runs the aggregate and all estimators over one
// observation multiset (the whole table or one GROUP BY group).
func (db *DB) executeOnSample(ctx context.Context, q *sqlparse.Query, sample *freqstats.Sample) (*Result, error) {
	res := &Result{
		Query:     q,
		Estimates: make(map[string]core.Estimate),
		Sample:    sample,
	}
	if cov, ok := species.Coverage(sample); ok {
		res.Coverage = cov
	}

	estimators := db.estimators()

	switch q.Agg {
	case sqlparse.AggSum:
		res.Observed = sample.SumValues()
		// The paper attaches every configured estimator (plus the Section 4
		// bound) to each query; they are independent read-only passes over
		// the sample, so fan them out across the bounded worker pool.
		if err := fanOutEstimates(ctx, res, estimators, func(est core.SumEstimator) core.Estimate {
			return est.EstimateSum(sample)
		}, func() { res.Bound = core.UpperBound{}.Bound(sample) }); err != nil {
			return nil, err
		}
	case sqlparse.AggCount:
		res.Observed = float64(sample.C())
		if err := fanOutEstimates(ctx, res, estimators, func(est core.SumEstimator) core.Estimate {
			return core.CountEstimate(est, sample)
		}, func() {
			if iv := species.Chao84Interval(sample, 1.96); iv.Valid {
				res.CountInterval = &iv
			}
		}); err != nil {
			return nil, err
		}
	case sqlparse.AggAvg:
		if sample.C() > 0 {
			res.Observed = sample.SumValues() / float64(sample.C())
		}
		if err := fanOutEstimates(ctx, res, estimators, func(est core.SumEstimator) core.Estimate {
			return core.AvgEstimate(est, sample)
		}, nil); err != nil {
			return nil, err
		}
	case sqlparse.AggMin, sqlparse.AggMax:
		bucket := findBucket(estimators)
		var ext core.ExtremeResult
		if q.Agg == sqlparse.AggMin {
			ext = core.MinEstimate(bucket, sample)
		} else {
			ext = core.MaxEstimate(bucket, sample)
		}
		res.Extreme = &ext
		res.Observed = ext.Observed
	case sqlparse.AggMedian:
		qr, err := core.MedianEstimate(findBucket(estimators), sample)
		if err != nil {
			return nil, err
		}
		res.Observed = qr.Observed
		res.Estimates["median"] = core.Estimate{
			Delta:          qr.Estimated - qr.Observed,
			Observed:       qr.Observed,
			Estimated:      qr.Estimated,
			CountObserved:  sample.C(),
			CountEstimated: qr.CountEstimated,
			Coverage:       res.Coverage,
			Valid:          qr.Valid,
			Diverged:       qr.Diverged,
			LowCoverage:    qr.LowCoverage,
		}
	default:
		return nil, fmt.Errorf("engine: unsupported aggregate %q", q.Agg)
	}

	res.Warnings = db.warnings(res)
	return res, nil
}

// fanOutEstimates runs every estimator (and an optional extra task, e.g.
// the Section 4 bound) concurrently on the bounded query worker pool and
// stores the results keyed by estimator name. Estimators are pure readers
// of the sample, which is immutable once built. Cancellation is observed
// between tasks (an estimator that already started runs to completion)
// and once more after the last one, so a query canceled while its
// estimators ran returns the context error even when every task had
// already started. On that error the caller discards the partially filled
// result and nothing reaches any cache.
func fanOutEstimates(ctx context.Context, res *Result, estimators []core.SumEstimator, run func(core.SumEstimator) core.Estimate, extra func()) error {
	ests := make([]core.Estimate, len(estimators))
	n := len(estimators)
	if extra != nil {
		n++
	}
	if err := parallelForCtx(ctx, n, func(i int) error {
		if i == len(estimators) {
			extra()
			return nil
		}
		ests[i] = run(estimators[i])
		return nil
	}); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, est := range estimators {
		res.Estimates[est.Name()] = ests[i]
	}
	return nil
}

func findBucket(estimators []core.SumEstimator) core.Bucket {
	for _, est := range estimators {
		if b, ok := est.(core.Bucket); ok {
			return b
		}
	}
	return core.Bucket{}
}

func (db *DB) warnings(res *Result) []string {
	var w []string
	s := res.Sample
	if s.C() == 0 {
		return []string{"no records match the predicate; estimates are meaningless"}
	}
	if res.Coverage < species.MinReliableCoverage {
		w = append(w, fmt.Sprintf(
			"sample coverage %.0f%% is below the %.0f%% threshold; estimates are unreliable (paper Section 6.5)",
			res.Coverage*100, species.MinReliableCoverage*100))
	}
	if s.NumSources() < MinSourcesForBalance {
		w = append(w, fmt.Sprintf(
			"only %d data source(s); the with-replacement approximation needs ~%d or more (paper Appendix E)",
			s.NumSources(), MinSourcesForBalance))
	}
	if res.streakerSuspected() && s.NumSources() >= MinSourcesForBalance {
		w = append(w, "a single source dominates the sample (streaker); prefer the Monte-Carlo estimate (paper Section 6.3)")
	}
	for name, e := range res.Estimates {
		if e.Diverged {
			w = append(w, fmt.Sprintf("estimator %q hit a degenerate regime (pure singletons); its numbers use a fallback", name))
		}
	}
	sort.Strings(w)
	return w
}
