package stats

import (
	"fmt"
	"math"
)

// DefaultSmoothingEpsilon is the probability mass assigned to empty cells
// when smoothing a distribution before computing KL divergence. The paper's
// Monte-Carlo method (Algorithm 2, line 10) assigns "a small non-zero
// probability to the missing extra unique items" so that the divergence is
// defined even when the observed sample contains fewer unique items than the
// simulated one.
const DefaultSmoothingEpsilon = 1e-6

// KLDivergence returns the discrete Kullback-Leibler divergence
// D(p || q) = sum_i p_i * log(p_i / q_i) in nats.
//
// p and q must have the same length and should each sum to approximately 1.
// Cells where p_i == 0 contribute zero by the usual convention. If some
// p_i > 0 has q_i == 0 the divergence is +Inf. An error is returned only for
// structural problems (length mismatch, negative entries).
func KLDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: KL divergence length mismatch: %d vs %d", len(p), len(q))
	}
	var d float64
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			return 0, fmt.Errorf("stats: KL divergence negative entry at index %d (p=%g q=%g)", i, p[i], q[i])
		}
		if p[i] == 0 {
			continue
		}
		if q[i] == 0 {
			return math.Inf(1), nil
		}
		d += p[i] * math.Log(p[i]/q[i])
	}
	// Floating point rounding can push a mathematically zero divergence
	// slightly negative; KL is non-negative by Gibbs' inequality.
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d, nil
}

// SmoothedKLDivergence pads both distributions with eps in every zero cell,
// renormalizes, and returns the KL divergence. This is the "smooth" step of
// Algorithm 2: it keeps the divergence finite when the observed frequency
// statistic has empty cells the simulation populated (or vice versa).
// If eps <= 0, DefaultSmoothingEpsilon is used.
func SmoothedKLDivergence(p, q []float64, eps float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: smoothed KL divergence length mismatch: %d vs %d", len(p), len(q))
	}
	if eps <= 0 {
		eps = DefaultSmoothingEpsilon
	}
	ps := smoothZeros(p, eps)
	qs := smoothZeros(q, eps)
	return KLDivergence(Normalize(ps), Normalize(qs))
}

// smoothZeros returns a copy of xs with every non-positive cell replaced by
// eps. Negative cells are treated as empty; validation of truly negative
// probability vectors happens in KLDivergence.
func smoothZeros(xs []float64, eps float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			out[i] = eps
		} else {
			out[i] = x
		}
	}
	return out
}
