package randx

import (
	"fmt"
	"math/rand"
	"sort"
)

// CorrelateValues assigns attribute values to publicity ranks with a
// controllable rank correlation rho in [0, 1] (the paper's publicity-value
// correlation):
//
//   - rho = 1: perfect correlation — the most publicized item (largest
//     weight) receives the largest value, the second most publicized the
//     second largest, and so on.
//   - rho = 0: no correlation — values are assigned to ranks uniformly at
//     random.
//   - 0 < rho < 1: a noisy interpolation — the value order is perturbed by
//     Gaussian rank noise whose magnitude grows as rho shrinks.
//
// weights and values must have the same length. The returned slice holds,
// for each index i of weights, the value assigned to that item; neither
// input is modified.
func CorrelateValues(rng *rand.Rand, weights, values []float64, rho float64) ([]float64, error) {
	if len(weights) != len(values) {
		return nil, fmt.Errorf("randx: correlate length mismatch: %d weights, %d values", len(weights), len(values))
	}
	if rho < 0 || rho > 1 {
		return nil, fmt.Errorf("randx: correlation rho = %g outside [0, 1]", rho)
	}
	n := len(weights)
	if n == 0 {
		return nil, nil
	}

	// Rank items by publicity, descending (ties broken by index for
	// determinism).
	byPublicity := make([]int, n)
	for i := range byPublicity {
		byPublicity[i] = i
	}
	sort.SliceStable(byPublicity, func(a, b int) bool {
		return weights[byPublicity[a]] > weights[byPublicity[b]]
	})

	// Sort values descending.
	sortedValues := make([]float64, n)
	copy(sortedValues, values)
	sort.Sort(sort.Reverse(sort.Float64Slice(sortedValues)))

	// Build the value order: start from perfect correlation (rank r gets
	// the r-th largest value), then perturb ranks with noise scaled by
	// (1-rho). With rho = 0 the noise dominates and the assignment is a
	// uniform random permutation in distribution.
	type scored struct {
		valueIdx int
		score    float64
	}
	perturbed := make([]scored, n)
	for r := 0; r < n; r++ {
		noise := 0.0
		if rho < 1 {
			if rho == 0 {
				noise = rng.Float64() * float64(n) * 1e6 // pure shuffle
			} else {
				noise = rng.NormFloat64() * (1 - rho) / rho * float64(n) / 4
			}
		}
		perturbed[r] = scored{valueIdx: r, score: float64(r) + noise}
	}
	sort.SliceStable(perturbed, func(a, b int) bool { return perturbed[a].score < perturbed[b].score })

	out := make([]float64, n)
	for r, item := range byPublicity {
		out[item] = sortedValues[perturbed[r].valueIdx]
	}
	return out, nil
}
