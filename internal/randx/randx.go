// Package randx is the randomness substrate for the data-integration
// simulator and the Monte-Carlo estimator: publicity-weight models,
// weighted sampling with and without replacement, and controlled
// rank correlation between publicity and attribute values.
//
// Nothing in this package uses global randomness. Every randomized function
// takes an explicit *rand.Rand so that simulations, experiments and tests
// are reproducible under a fixed seed.
package randx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// New returns a rand.Rand seeded deterministically.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive deterministically derives a child seed from a base seed and a
// path of stream identifiers, using SplitMix64 finalization rounds. It
// lets parallel simulations give every (grid cell, run) its own
// independent, order-free random stream: results are bitwise identical no
// matter how work is scheduled across goroutines.
func Derive(seed int64, ids ...int64) int64 {
	// SplitMix64 absorption: each value is folded in additively with the
	// golden-gamma increment, then finalized. Absorbing purely by addition
	// keeps each step injective in the absorbed value (mixing xor and add
	// of the same word would cancel for values covered by the constant's
	// set bits).
	x := uint64(0)
	mix := func(v uint64) {
		x += v + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	mix(uint64(seed))
	for _, id := range ids {
		mix(uint64(id))
	}
	return int64(x)
}

// ExponentialWeights returns n positive publicity weights following the
// paper's exponential publicity model: item i (0-based) gets weight
// exp(-lambda * 10 * i / n). The 10/n scaling makes the shape independent of
// the population size: lambda = 0 is uniform, lambda = 4 is the paper's
// "highly skewed" setting (head-to-tail ratio e^40), and the Monte-Carlo
// search's lambda in [-0.4, 0.4] spans almost-uniform shapes in both
// directions (negative lambda reverses the skew). Weights are not
// normalized; use stats.Normalize or pass them to the samplers, which
// normalize internally.
func ExponentialWeights(n int, lambda float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	scale := 10 / float64(n)
	for i := range w {
		w[i] = math.Exp(-lambda * scale * float64(i))
	}
	return w
}

// UniformWeights returns n equal weights.
func UniformWeights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// ZipfWeights returns n weights proportional to 1/(i+1)^s, a heavy-tailed
// alternative publicity model used by ablation experiments.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// SampleWithReplacement draws k indices from [0, len(weights)) with
// probability proportional to the weights, independently with replacement.
func SampleWithReplacement(rng *rand.Rand, weights []float64, k int) ([]int, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	cum := cumulative(weights)
	total := cum[len(cum)-1]
	out := make([]int, k)
	for i := range out {
		out[i] = searchCumulative(cum, rng.Float64()*total)
	}
	return out, nil
}

// SampleWithoutReplacement draws k distinct indices from
// [0, len(weights)) with probability proportional to the weights, without
// replacement, using the Efraimidis-Spirakis exponential-keys method: each
// index i gets key Exp(1)/w_i and the k smallest keys win. This models a
// data source that mentions an entity at most once (paper Section 2.2).
// k is clamped to len(weights).
//
// RNG-stream contract: exactly one rng.ExpFloat64() is drawn per positive
// weight, in index order, whatever k is (zero weights draw nothing and are
// never returned). The winners are the k smallest (key, index) pairs, so an
// exact key tie goes to the lower index, and they are returned in that
// (key, index) order: ascending key, i.e. the order in which an
// exponential-clock source would emit them. It is KeySampler.Sample on a
// fresh KeySampler; callers drawing repeatedly from one weight vector
// should hold a KeySampler instead.
func SampleWithoutReplacement(rng *rand.Rand, weights []float64, k int) ([]int, error) {
	s, err := NewKeySampler(weights)
	if err != nil {
		return nil, err
	}
	return s.Sample(rng, k, nil)
}

// KeySampler is the exponential-keys sampler behind
// SampleWithoutReplacement, bound to one validated weight vector so that
// repeated draws skip validation and reuse its selection buffer. It follows
// the SampleWithoutReplacement contract draw for draw. A KeySampler is not
// safe for concurrent use, and the weights must not change while it is in
// use.
type KeySampler struct {
	weights []float64
	heap    []keyed // max-heap of the current k smallest (key, index) pairs
}

type keyed struct {
	key float64
	idx int
}

// after reports whether a sorts after b in (key, index) order.
func (a keyed) after(b keyed) bool {
	return a.key > b.key || (a.key == b.key && a.idx > b.idx)
}

// NewKeySampler validates the weights once for every later Sample call.
func NewKeySampler(weights []float64) (*KeySampler, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	return &KeySampler{weights: weights}, nil
}

// Sample appends k sampled indices to dst and returns the extended slice.
// Only the k winning keys are kept (a size-k max-heap) and only they are
// sorted, so a draw costs O(n log k) instead of a full sort of n keys.
func (s *KeySampler) Sample(rng *rand.Rand, k int, dst []int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	k = min(k, len(s.weights))
	h := s.heap[:0]
	for i, w := range s.weights {
		if w <= 0 {
			continue
		}
		key := rng.ExpFloat64() / w
		switch {
		case len(h) < k:
			// A weight so small its key overflows is never drawn, like a
			// zero weight. (Once the heap is full its finite top keeps
			// such keys out.)
			if !math.IsInf(key, 1) {
				h = append(h, keyed{key: key, idx: i})
				siftUp(h, len(h)-1)
			}
		case k > 0 && key < h[0].key:
			// Indices arrive in ascending order, so an equal key loses
			// the tie to the heap top and only a smaller key displaces it.
			h[0] = keyed{key: key, idx: i}
			siftDown(h, 0)
		}
	}
	// Heapsort the winners in place into ascending (key, index) order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
	s.heap = h
	dst = slices.Grow(dst, len(h))
	for _, kv := range h {
		dst = append(dst, kv.idx)
	}
	return dst, nil
}

func siftUp(h []keyed, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].after(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []keyed, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].after(h[c]) {
			c++
		}
		if !h[c].after(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Shuffle permutes xs in place.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

func validateWeights(weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("randx: empty weight vector")
	}
	var pos bool
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("randx: invalid weight %g at index %d", w, i)
		}
		if w > 0 {
			pos = true
		}
	}
	if !pos {
		return fmt.Errorf("randx: all weights are zero")
	}
	return nil
}

func cumulative(weights []float64) []float64 {
	cum := make([]float64, len(weights))
	var s float64
	for i, w := range weights {
		s += w
		cum[i] = s
	}
	return cum
}

// searchCumulative returns the smallest index i with cum[i] > target.
func searchCumulative(cum []float64, target float64) int {
	idx := sort.SearchFloat64s(cum, target)
	// sort.SearchFloat64s returns the first i with cum[i] >= target; when
	// target lands exactly on a boundary this is still a valid draw. Clamp
	// for the target == total edge case.
	if idx >= len(cum) {
		idx = len(cum) - 1
	}
	return idx
}
