package core

import (
	"fmt"

	"repro/internal/freqstats"
	"repro/internal/species"
	"repro/internal/stats"
)

// QuantileResult is the outcome of an open-world quantile estimation.
type QuantileResult struct {
	// Q is the requested quantile in [0, 1].
	Q float64
	// Observed is the empirical quantile over the integrated database K.
	Observed float64
	// Estimated is the quantile corrected for unknown unknowns.
	Estimated float64
	// CountEstimated is the estimated total number of unique entities the
	// corrected quantile ranges over.
	CountEstimated float64
	// Valid is false for an empty sample or invalid q.
	Valid bool
	// Diverged propagates per-bucket degeneracies.
	Diverged bool
	// LowCoverage mirrors the usual 40% coverage warning.
	LowCoverage bool
}

// QuantileEstimate estimates the q-quantile (e.g. 0.5 for MEDIAN) of the
// ground-truth value distribution in the presence of unknown unknowns.
// The paper lists richer aggregates as future work (Section 8); this
// extension applies its bucket machinery directly:
//
//   - partition the value range with the dynamic bucket strategy,
//   - estimate the number of ground-truth entities N-hat_b per bucket,
//   - walk the buckets in value order until the cumulative estimated
//     count passes q * N-hat_total,
//   - interpolate inside the target bucket using the bucket's observed
//     empirical distribution (the same "missing items look like their
//     bucket" assumption the SUM estimator makes). Only that bucket's
//     values are read, straight from the sample's; no bucket is
//     materialized.
//
// Under publicity-value correlation the observed quantile is biased
// toward well-known items; the correction shifts it by the estimated mass
// of the undersampled value ranges.
func QuantileEstimate(b Bucket, s *freqstats.Sample, q float64) (QuantileResult, error) {
	if !(q >= 0 && q <= 1) { // NaN fails both comparisons
		return QuantileResult{}, fmt.Errorf("core: quantile %g outside [0, 1]", q)
	}
	res := QuantileResult{Q: q}
	values := s.Values()
	if len(values) == 0 {
		return res, nil
	}
	res.Valid = true
	res.Observed = stats.Quantile(values, q)
	if cov, ok := species.Coverage(s); ok {
		res.LowCoverage = cov < species.MinReliableCoverage
	}

	buckets := b.Buckets(s)
	if len(buckets) == 0 {
		res.Estimated = res.Observed
		return res, nil
	}
	var total float64
	counts := make([]float64, len(buckets))
	for i, bk := range buckets {
		nb := bk.Est.CountEstimated
		cb := float64(bk.C)
		if nb < cb {
			nb = cb
		}
		counts[i] = nb
		total += nb
		res.Diverged = res.Diverged || bk.Est.Diverged
	}
	res.CountEstimated = total
	if total == 0 {
		res.Estimated = res.Observed
		return res, nil
	}

	target := q * total
	var cum float64
	for i, bk := range buckets {
		if cum+counts[i] < target && i < len(buckets)-1 {
			cum += counts[i]
			continue
		}
		// Rank within this bucket, as a fraction of its estimated count.
		frac := 0.0
		if counts[i] > 0 {
			frac = (target - cum) / counts[i]
		}
		frac = stats.Clamp(frac, 0, 1)
		in := make([]float64, 0, bk.C)
		for _, v := range values {
			if bk.holds(v) {
				in = append(in, v)
			}
		}
		res.Estimated = stats.Quantile(in, frac)
		return res, nil
	}
	res.Estimated = res.Observed
	return res, nil
}

// MedianEstimate is QuantileEstimate at q = 0.5.
func MedianEstimate(b Bucket, s *freqstats.Sample) (QuantileResult, error) {
	return QuantileEstimate(b, s, 0.5)
}
