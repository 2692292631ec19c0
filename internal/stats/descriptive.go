// Package stats provides the numerical substrate for the unknown-unknowns
// estimators: descriptive statistics, discrete KL divergence, least-squares
// curve fitting (including the two-dimensional quadratic surface used by the
// Monte-Carlo search in Algorithm 3 of the paper), and a dense linear solver.
//
// Everything is implemented with the standard library only. Functions are
// pure: they never retain references to their inputs and never mutate them
// unless documented otherwise.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (dividing by n-1).
// Slices with fewer than two elements have variance 0.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// PopVariance returns the population variance of xs (dividing by n).
func PopVariance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// PopStdDev returns the population standard deviation of xs.
func PopStdDev(xs []float64) float64 {
	return math.Sqrt(PopVariance(xs))
}

// Min returns the minimum of xs and true, or (0, false) for an empty slice.
func Min(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, true
}

// Max returns the maximum of xs and true, or (0, false) for an empty slice.
func Max(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, true
}

// Median returns the median of xs (average of the two middle elements for
// even-length input), or 0 for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics (the same convention as R type 7). q is clamped to [0, 1].
// The input is not modified. An empty slice yields 0, and a NaN q yields
// NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CoefficientOfVariation returns the ratio of the population standard
// deviation to the mean, the dispersion measure the paper calls CV (gamma).
// A zero mean yields 0 to avoid division by zero; callers that care can
// check Mean themselves.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return PopStdDev(xs) / m
}

// Normalize scales xs so the elements sum to 1 and returns the result as a
// new slice. If the sum is zero or not finite, a uniform distribution over
// len(xs) elements is returned instead. An empty slice returns nil.
func Normalize(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := Sum(xs)
	out := make([]float64, len(xs))
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		u := 1 / float64(len(xs))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, x := range xs {
		out[i] = x / s
	}
	return out
}

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
