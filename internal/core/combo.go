package core

import (
	"repro/internal/freqstats"
	"repro/internal/species"
)

// BucketedMonteCarlo is the "Monte-Carlo with Bucket" combination of
// Appendix D: bucket boundaries are chosen by the dynamic strategy (with
// the cheap naive inner estimator driving the split search), and each
// final bucket is then re-estimated with the Monte-Carlo estimator.
//
// The appendix finds this combination underwhelming: each bucket holds a
// small sample whose publicity looks near-uniform, and the MC estimator's
// conservative bias (N-hat ~ c) pushes every bucket's correction toward
// zero — the estimate drifts to the observed sum. It is provided for the
// Figure 10 reproduction and for users who want the ablation.
//
// Running MC inside the split search itself (Bucket{Inner: MonteCarlo{}})
// is also possible but costs one MC run per candidate split; this type is
// the practical variant.
type BucketedMonteCarlo struct {
	// MC configures the per-bucket Monte-Carlo estimator.
	MC MonteCarlo
}

// Name implements SumEstimator.
func (BucketedMonteCarlo) Name() string { return "bucket+mc" }

// EstimateSum implements SumEstimator.
func (b BucketedMonteCarlo) EstimateSum(s *freqstats.Sample) Estimate {
	buckets := Bucket{}.Buckets(s)
	e := Estimate{
		Observed:      s.SumValues(),
		CountObserved: s.C(),
	}
	if len(buckets) == 0 {
		return e
	}
	e.Valid = true
	var delta, nHat float64
	for _, bk := range buckets {
		c := float64(bk.C)
		if c == 0 {
			continue
		}
		mcN := b.MC.EstimateN(bk.Sample())
		nHat += mcN
		delta += bk.Sum / c * (mcN - c)
		e.Diverged = e.Diverged || bk.Est.Diverged
	}
	e.CountEstimated = nHat
	if cov, ok := species.Coverage(s); ok {
		e.Coverage = cov
		e.LowCoverage = cov < species.MinReliableCoverage
	}
	return finishEstimate(e, delta)
}
