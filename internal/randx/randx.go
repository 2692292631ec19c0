// Package randx is the randomness substrate for the data-integration
// simulator and the Monte-Carlo estimator: publicity-weight models,
// weighted sampling with and without replacement, and controlled
// rank correlation between publicity and attribute values.
//
// Nothing in this package uses global randomness. Every randomized function
// takes an explicit *rand.Rand so that simulations, experiments and tests
// are reproducible under a fixed seed. Stream is math/rand's generator as
// a concrete type, bit-identical to it, for the Monte-Carlo estimator's
// hot loop: KeySampler.SampleSet draws from a Stream.
package randx

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
	FillExponentialWeights(w, lambda)
	return w
}

// FillExponentialWeights overwrites w with ExponentialWeights(len(w),
// lambda), bit for bit, so that repeated simulations can reuse one buffer.
func FillExponentialWeights(w []float64, lambda float64) {
	scale := 10 / float64(len(w))
	for i := range w {
		w[i] = math.Exp(-lambda * scale * float64(i))
	}
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

// SampleWithoutReplacement draws k distinct indices from
// [0, len(weights)) with probability proportional to the weights, without
// replacement, using the Efraimidis-Spirakis exponential-keys method: each
// index i gets key Exp(1)/w_i and the k smallest keys win. This models a
// data source that mentions an entity at most once (paper Section 2.2).
// k is clamped to len(weights).
//
// RNG-stream contract: exactly one rng.ExpFloat64() is drawn per positive
// weight, in index order, whatever k is (zero weights draw nothing and are
// never returned, and neither is a weight so small that its key overflows
// to +Inf). The winners are the k smallest (key, index) pairs, so an exact
// key tie goes to the lower index, and they are returned in that
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
// repeated draws skip validation and reuse its buffers. It follows the
// SampleWithoutReplacement contract draw for draw: Sample on a rand.Rand,
// SampleSet on a Stream, whose values are those of a rand.Rand of the same
// seed.
//
// A draw costs O(n) whatever k is: the keys' bit patterns are stored, the
// k-th smallest is found by an MSD radix select on those bits, and one
// index-ordered pass emits the winners. A KeySampler is not safe for
// concurrent use, and the weights must not change while it is in use.
type KeySampler struct {
	weights []float64
	bits    []uint64 // math.Float64bits of each index's key
	cand    []uint64 // radix-select candidates after the first round
}

// infBits is the bit pattern of +Inf, the key of a zero weight. Keys are
// never negative or NaN, and non-negative floats order like their bit
// patterns, so every finite key's bits are below it.
const infBits = 0x7FF0000000000000

// NewKeySampler validates the weights once for every later Sample call.
func NewKeySampler(weights []float64) (*KeySampler, error) {
	s := new(KeySampler)
	if err := s.Reset(weights); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset validates and binds a new weight vector, keeping the buffers of
// earlier draws. On error the sampler is unchanged.
func (s *KeySampler) Reset(weights []float64) error {
	if err := validateWeights(weights); err != nil {
		return err
	}
	s.weights = weights
	return nil
}

// Sample appends k sampled indices to dst in ascending (key, index) order
// and returns the extended slice: the SampleWithoutReplacement draw, on
// the caller's rand.Rand.
func (s *KeySampler) Sample(rng *rand.Rand, k int, dst []int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	keys := s.keyBuf()
	lo, hi := uint64(infBits), uint64(0)
	finite := 0
	for i, w := range s.weights {
		u := uint64(infBits)
		if w > 0 {
			u = math.Float64bits(rng.ExpFloat64() / w)
			if u < infBits {
				finite++
				lo, hi = min(lo, u), max(hi, u)
			}
		}
		keys[i] = u
	}
	start := len(dst)
	dst = s.selectSet(k, lo, hi, finite, dst)
	// Winners arrive in index order, so a stable sort on the key bits
	// leaves exact ties in index order.
	slices.SortStableFunc(dst[start:], func(a, b int) int {
		return cmp.Compare(keys[a], keys[b])
	})
	return dst, nil
}

// SampleSet draws from a Stream the keys that Sample draws from a rand.Rand
// of the same seed, leaves the Stream where Sample leaves the rand.Rand,
// and appends the same k winners to dst, but in ascending index order.
// Callers that only count the winners need no other order. It may grow
// dst's capacity by up to len(weights), the room its branch-free emission
// pass writes through.
//
// The key loop keeps the Stream's indices in locals and inlines both the
// generator step and the ziggurat's fast path, which takes about 98% of
// draws; only the rest calls out of line.
func (s *KeySampler) SampleSet(rng *Stream, k int, dst []int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	keys := s.keyBuf()
	vec, feed, tap := &rng.vec, rng.feed, rng.tap
	lo, hi := uint64(infBits), uint64(0)
	finite := 0
	for i, w := range s.weights {
		u := uint64(infBits)
		if w > 0 {
			var x uint64
			x, feed, tap = step(vec, feed, tap)
			j := uint32(x >> 31) // rand.Rand.Uint32
			var e float64
			if b := j & 0xFF; j < ke[b] {
				e = float64(j) * float64(we[b])
			} else {
				rng.feed, rng.tap = feed, tap
				e = rng.expFrom(j)
				feed, tap = rng.feed, rng.tap
			}
			u = math.Float64bits(e / w)
			if u < infBits {
				finite++
				lo, hi = min(lo, u), max(hi, u)
			}
		}
		keys[i] = u
	}
	rng.feed, rng.tap = feed, tap
	return s.selectSet(k, lo, hi, finite, dst), nil
}

// keyBuf returns s.bits resized to one key per weight.
func (s *KeySampler) keyBuf() []uint64 {
	n := len(s.weights)
	s.bits = slices.Grow(s.bits[:0], n)[:n]
	return s.bits
}

// selectSet appends to dst, in index order, the indices of the k smallest
// (key, index) pairs among the keys in s.bits, given the range [lo, hi]
// of the finite ones and their count. It is the select and emit half of
// both Sample and SampleSet.
func (s *KeySampler) selectSet(k int, lo, hi uint64, finite int, dst []int) []int {
	keys := s.bits
	// A weight so small that its key overflows is never drawn, like a
	// zero weight.
	k = min(k, finite)
	if k == 0 {
		return dst
	}
	thr, take := s.kthSmallest(k, lo, hi)

	// Emit every index whose key is at most thr, in index order, without a
	// branch per key: each index is written, and kept by advancing j.
	n := len(keys)
	start := len(dst)
	dst = slices.Grow(dst, n)
	out := dst[start : start+n]
	j := 0
	for i, u := range keys {
		out[j] = i
		if u <= thr {
			j++
		}
	}
	if j > k {
		// More keys equal thr than rank k admits: keep the first take of
		// them, so an exact tie goes to the lower index.
		kept := 0
		for _, i := range out[:j] {
			if keys[i] == thr {
				if take == 0 {
					continue
				}
				take--
			}
			out[kept] = i
			kept++
		}
		j = kept
	}
	return dst[:start+j]
}

// kthSmallest returns the k-th smallest finite key bit pattern, given the
// range [lo, hi] of the finite ones, and take, how many keys equal to it
// are among the k smallest. Each round histograms the candidates in
// [lo, hi] into at most 256 bins of (u-lo)>>shift, keeps only the
// candidates in the bin holding rank k, and shrinks [lo, hi] to their
// range, so every round removes at least 8 bits of it; the loop ends when
// one value is left.
func (s *KeySampler) kthSmallest(k int, lo, hi uint64) (thr uint64, take int) {
	cand := s.bits // +Inf keys fall outside [lo, hi] in the first round
	s.cand = slices.Grow(s.cand[:0], len(cand))
	for lo < hi {
		shift := max(bits.Len64(hi-lo)-8, 0)
		var hist [256]int32
		for _, u := range cand {
			if d := u - lo; d <= hi-lo {
				hist[d>>shift]++
			}
		}
		b := 0
		for k > int(hist[b]) {
			k -= int(hist[b])
			b++
		}
		binLo := lo + uint64(b)<<shift
		binHi := min(hi, binLo+(1<<shift-1))
		// Compact the bin's candidates into s.cand, writing every key and
		// keeping it by advancing j; j never passes the read position, so
		// this is safe in place on later rounds.
		next := s.cand[:len(cand)]
		j := 0
		for _, u := range cand {
			next[j] = u
			if u-binLo <= binHi-binLo {
				j++
			}
		}
		cand = next[:j]
		lo, hi = slices.Min(cand), slices.Max(cand)
	}
	return lo, k
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
