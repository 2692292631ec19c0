package core

import (
	"repro/internal/freqstats"
	"repro/internal/species"
)

// CountEstimate estimates a COUNT(*) query in the open world (Section 5):
// the corrected count is simply the species estimate N-hat; Delta is the
// number of missing unique entities. The chosen SumEstimator determines
// which count model is used: Naive/Frequency use Chao92, MonteCarlo uses
// the simulation-based estimate, Bucket sums per-bucket count estimates.
func CountEstimate(est SumEstimator, s *freqstats.Sample) Estimate {
	switch e := est.(type) {
	case MonteCarlo:
		sp := species.Chao92(s)
		out := newEstimate(s, sp)
		out.Observed = float64(s.C())
		if !out.Valid {
			return out
		}
		out.CountEstimated = e.EstimateN(s)
		return finishEstimate(out, out.CountEstimated-float64(s.C()))
	case Bucket:
		out := Estimate{Observed: float64(s.C()), CountObserved: s.C()}
		buckets := e.Buckets(s)
		if len(buckets) == 0 {
			return out
		}
		out.Valid = true
		var nHat float64
		for _, b := range buckets {
			nHat += b.Est.CountEstimated
			out.Diverged = out.Diverged || b.Est.Diverged
		}
		out.CountEstimated = nHat
		if cov, ok := species.Coverage(s); ok {
			out.Coverage = cov
			out.LowCoverage = cov < species.MinReliableCoverage
		}
		return finishEstimate(out, nHat-float64(s.C()))
	default:
		sp := species.Chao92(s)
		out := newEstimate(s, sp)
		out.Observed = float64(s.C())
		if !out.Valid {
			return out
		}
		return finishEstimate(out, sp.N-float64(s.C()))
	}
}

// AvgEstimate estimates an AVG query in the open world (Section 5). The
// plain estimators assume missing items share the observed mean, so their
// corrected AVG equals the observed AVG; only the bucket estimator can
// correct the publicity-value-correlation bias, by taking the weighted
// average of per-bucket observed means with the per-bucket count estimates
// N-hat as weights.
func AvgEstimate(est SumEstimator, s *freqstats.Sample) Estimate {
	c := float64(s.C())
	out := Estimate{CountObserved: s.C()}
	if c == 0 {
		return out
	}
	out.Observed = s.SumValues() / c
	out.Valid = true
	if cov, ok := species.Coverage(s); ok {
		out.Coverage = cov
		out.LowCoverage = cov < species.MinReliableCoverage
	}

	b, isBucket := est.(Bucket)
	if !isBucket {
		// Mean substitution leaves the average unchanged (law of large
		// numbers justification in Section 5).
		sp := species.Chao92(s)
		out.CountEstimated = sp.N
		out.Diverged = sp.Diverged
		return finishEstimate(out, 0)
	}

	buckets := b.Buckets(s)
	var weighted, weightSum float64
	for _, bk := range buckets {
		cb := float64(bk.C)
		if cb == 0 {
			continue
		}
		mean := bk.Sum / cb
		w := bk.Est.CountEstimated
		if w < cb {
			w = cb
		}
		weighted += mean * w
		weightSum += w
		out.Diverged = out.Diverged || bk.Est.Diverged
	}
	if weightSum == 0 {
		return finishEstimate(out, 0)
	}
	out.CountEstimated = weightSum
	corrected := weighted / weightSum
	return finishEstimate(out, corrected-out.Observed)
}

// ExtremeResult is the outcome of an open-world MIN or MAX estimation.
type ExtremeResult struct {
	// Observed is the extreme value in the integrated database.
	Observed float64
	// Trusted is true when the estimator believes the observed extreme is
	// the true one: the unknown-unknowns count estimate for the extreme
	// bucket is (approximately) zero, so nothing in that value range
	// appears to be missing (Section 5).
	Trusted bool
	// ExtremeBucketMissing is the estimated number of missing entities in
	// the extreme-value bucket; Trusted is ExtremeBucketMissing < Tolerance.
	ExtremeBucketMissing float64
	// Valid is false for an empty sample.
	Valid bool
}

// ExtremeTolerance is the threshold below which the extreme bucket's
// missing-count estimate is treated as zero. Count estimates are real
// numbers; a fraction of one missing entity is noise.
const ExtremeTolerance = 0.5

// MinEstimate reports the observed MIN and whether it can be trusted as
// the true minimum, using the given bucket estimator's partitioning.
func MinEstimate(b Bucket, s *freqstats.Sample) ExtremeResult {
	return extremeEstimate(b, s, false)
}

// MaxEstimate reports the observed MAX and whether it can be trusted as
// the true maximum.
func MaxEstimate(b Bucket, s *freqstats.Sample) ExtremeResult {
	return extremeEstimate(b, s, true)
}

func extremeEstimate(b Bucket, s *freqstats.Sample, max bool) ExtremeResult {
	buckets := b.Buckets(s)
	if len(buckets) == 0 {
		return ExtremeResult{}
	}
	extreme := buckets[0]
	if max {
		extreme = buckets[len(buckets)-1]
	}
	missing := extreme.Est.CountEstimated - float64(extreme.C)
	if missing < 0 {
		missing = 0
	}
	values := s.Values()
	obs := values[0]
	for _, v := range values[1:] {
		if (max && v > obs) || (!max && v < obs) {
			obs = v
		}
	}
	return ExtremeResult{
		Observed:             obs,
		Trusted:              missing < ExtremeTolerance && !extreme.Est.Diverged,
		ExtremeBucketMissing: missing,
		Valid:                true,
	}
}
