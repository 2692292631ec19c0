// Package repro is an open-source-style reproduction of
//
//	Chung, Mortensen, Binnig, Kraska:
//	"Estimating the Impact of Unknown Unknowns on Aggregate Query Results"
//	(SIGMOD 2016, arXiv:1507.05591).
//
// Given a data set integrated from multiple overlapping sources, the
// library estimates how much entirely unobserved records — unknown
// unknowns — change the result of aggregate queries of the form
// SELECT AGG(attr) FROM table WHERE predicate.
//
// # Quick start
//
// Feed observations (entity, value, source) into a Collector, then ask for
// an open-world estimate:
//
//	c := repro.NewCollector()
//	c.Observe("google", 139995, "worker-17")
//	c.Observe("google", 139995, "worker-3")
//	c.Observe("tiny-startup", 11, "worker-8")
//	...
//	res := c.EstimateSum()
//	fmt.Println(res.Observed, res.Estimated) // phi_K and phi_K + Delta-hat
//
// Or go through the SQL layer: build tables with engine-level lineage and
// run textual queries with Open / DB.Query (see the examples directory).
//
// # Estimators
//
// Four estimators are provided (paper Section 3): EstimatorNaive
// (Chao92 count x observed mean), EstimatorFrequency (Chao92 count x
// singleton mean), EstimatorBucket (dynamic value-range bucketing,
// Algorithm 1 — the recommended default), and EstimatorMonteCarlo
// (process simulation — the only one robust to streakers). Section 6.5's
// guidance is encoded in Result.Best: bucket when sources contribute
// evenly, Monte-Carlo otherwise.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freqstats"
	"repro/internal/species"
	"repro/internal/sqlparse"
)

// EstimatorKind selects one of the paper's estimators.
type EstimatorKind string

// Available estimators.
const (
	EstimatorNaive      EstimatorKind = "naive"
	EstimatorFrequency  EstimatorKind = "freq"
	EstimatorBucket     EstimatorKind = "bucket"
	EstimatorMonteCarlo EstimatorKind = "mc"
)

// Estimate mirrors core.Estimate at the public API surface.
type Estimate = core.Estimate

// BoundResult mirrors core.BoundResult.
type BoundResult = core.BoundResult

// ExtremeResult mirrors core.ExtremeResult.
type ExtremeResult = core.ExtremeResult

// Collector accumulates observations from data sources and answers
// open-world aggregate estimates over them. It is the lightweight,
// SQL-free entry point; use DB for multi-table/predicate workloads.
// The zero value is ready to use.
type Collector struct {
	sample *freqstats.Sample
	// MonteCarloSeed seeds the Monte-Carlo estimator (default 1).
	MonteCarloSeed int64
	// MonteCarloRuns is the number of MC simulation runs per grid cell
	// (default core.DefaultMCRuns).
	MonteCarloRuns int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{sample: freqstats.NewSample()}
}

func (c *Collector) ensure() {
	if c.sample == nil {
		c.sample = freqstats.NewSample()
	}
}

// Observe records that source reported the entity with the given attribute
// value. Duplicate reports of an entity across sources are the overlap
// signal the estimators need; reports must be entity-resolved first. An
// error is returned for conflicting values (unclean input) but the
// observation still counts, keeping the first value.
func (c *Collector) Observe(entityID string, value float64, source string) error {
	c.ensure()
	return c.sample.Add(freqstats.Observation{EntityID: entityID, Value: value, Source: source})
}

// N returns the number of observations |S| recorded so far.
func (c *Collector) N() int {
	c.ensure()
	return c.sample.N()
}

// UniqueEntities returns the number of unique entities |K|.
func (c *Collector) UniqueEntities() int {
	c.ensure()
	return c.sample.C()
}

// Coverage returns the Good-Turing sample coverage estimate in [0, 1]; the
// paper recommends trusting estimates only when it exceeds 0.4.
func (c *Collector) Coverage() float64 {
	c.ensure()
	cov, _ := species.Coverage(c.sample)
	return cov
}

func (c *Collector) estimator(kind EstimatorKind) (core.SumEstimator, error) {
	switch kind {
	case EstimatorNaive:
		return core.Naive{}, nil
	case EstimatorFrequency:
		return core.Frequency{}, nil
	case EstimatorBucket, "":
		return core.Bucket{}, nil
	case EstimatorMonteCarlo:
		seed := c.MonteCarloSeed
		if seed == 0 {
			seed = 1
		}
		return core.MonteCarlo{Runs: c.MonteCarloRuns, Seed: seed}, nil
	default:
		return nil, fmt.Errorf("repro: unknown estimator %q", kind)
	}
}

// EstimateSum estimates the ground-truth SUM with the bucket estimator,
// the paper's recommended default.
func (c *Collector) EstimateSum() Estimate {
	e, _ := c.EstimateSumWith(EstimatorBucket)
	return e
}

// EstimateSumWith estimates the ground-truth SUM with a specific
// estimator.
func (c *Collector) EstimateSumWith(kind EstimatorKind) (Estimate, error) {
	c.ensure()
	est, err := c.estimator(kind)
	if err != nil {
		return Estimate{}, err
	}
	return est.EstimateSum(c.sample), nil
}

// EstimateCount estimates the ground-truth number of unique entities.
func (c *Collector) EstimateCount(kind EstimatorKind) (Estimate, error) {
	c.ensure()
	est, err := c.estimator(kind)
	if err != nil {
		return Estimate{}, err
	}
	return core.CountEstimate(est, c.sample), nil
}

// EstimateAvg estimates the ground-truth AVG; only the bucket estimator
// corrects the publicity-value-correlation bias (Section 5).
func (c *Collector) EstimateAvg(kind EstimatorKind) (Estimate, error) {
	c.ensure()
	est, err := c.estimator(kind)
	if err != nil {
		return Estimate{}, err
	}
	return core.AvgEstimate(est, c.sample), nil
}

// EstimateMin reports the observed MIN and whether it can be trusted as
// the true minimum (Section 5).
func (c *Collector) EstimateMin() ExtremeResult {
	c.ensure()
	return core.MinEstimate(core.Bucket{}, c.sample)
}

// EstimateMax reports the observed MAX and whether it can be trusted as
// the true maximum.
func (c *Collector) EstimateMax() ExtremeResult {
	c.ensure()
	return core.MaxEstimate(core.Bucket{}, c.sample)
}

// SumUpperBound returns the Section 4 high-probability worst case for the
// ground-truth SUM.
func (c *Collector) SumUpperBound() BoundResult {
	c.ensure()
	return core.UpperBound{}.Bound(c.sample)
}

// DB is the SQL-level entry point: a lineage-preserving in-memory database
// whose aggregate queries return open-world results. See package engine
// for the full API; this alias keeps simple deployments to a single
// import.
type DB = engine.DB

// Schema, Column, Value and the column type constants re-export the
// engine and SQL vocabulary so simple deployments need one import.
type (
	Schema = engine.Schema
	Column = engine.Column
	Value  = sqlparse.Value
)

// Column types.
const (
	TypeFloat  = engine.TypeFloat
	TypeString = engine.TypeString
	TypeBool   = engine.TypeBool
)

// Value constructors for inserting typed attribute values.
var (
	Number      = sqlparse.Number
	StringValue = sqlparse.StringValue
	BoolValue   = sqlparse.BoolValue
	Null        = sqlparse.Null
)

// Option configures a database opened with Open; see the engine package's
// With* constructors (WithBackend, WithResultCache, WithFlushOnQuery,
// WithIngest, WithEstimators).
type Option = engine.Option

// Open returns a database built from functional options; with none it is
// an empty in-memory database with the paper's default estimator set.
// Every setting is fixed here; see engine.Open.
func Open(opts ...Option) *DB {
	return engine.Open(opts...)
}
