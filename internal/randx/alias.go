package randx

import "math/rand"

// AliasSampler draws from a fixed discrete distribution in O(1) per draw
// using Vose's alias method (after O(n) preprocessing). The Monte-Carlo
// estimator's inner loop draws many samples from the same publicity
// vector; the alias table amortizes that cost.
type AliasSampler struct {
	prob  []float64
	alias []int
}

// NewAliasSampler preprocesses the (unnormalized, non-negative) weight
// vector. At least one weight must be positive.
func NewAliasSampler(weights []float64) (*AliasSampler, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	n := len(weights)
	var total float64
	for _, w := range weights {
		total += w
	}
	// Scale so the average cell is 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}

	prob := make([]float64, n)
	alias := make([]int, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers land at probability 1.
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return &AliasSampler{prob: prob, alias: alias}, nil
}

// N returns the support size.
func (a *AliasSampler) N() int { return len(a.prob) }

// Draw returns one index with probability proportional to its weight.
func (a *AliasSampler) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
