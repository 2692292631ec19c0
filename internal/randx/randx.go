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
// Sample costs O(n) whatever k is: the keys' bit patterns are stored, the
// k-th smallest is found by an MSD radix select on those bits, and one
// index-ordered pass emits the winners. SampleSet draws the same n keys
// but selects among far fewer: see its comment. A KeySampler is not safe
// for concurrent use, and the weights must not change while it is in use.
type KeySampler struct {
	weights []float64
	pos     int     // positive weights
	minW    float64 // smallest positive weight
	meanW   float64 // mean positive weight
	// ratio is SampleSet's running estimate of a draw's k-th key over the
	// model's (see threshold); 0 means no estimate yet.
	ratio float64
	exps  []float64   // SampleSet: each index's Exp(1) draw
	bits  []uint64    // key bit patterns, aligned with the candidate indices
	cand  []uint64    // radix-select candidates after the first round
	hist  [256]uint32 // radix-select histogram
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
// earlier draws and SampleSet's key-size estimate, which the model scales
// to the new weights. On error the sampler is unchanged.
func (s *KeySampler) Reset(weights []float64) error {
	if err := validateWeights(weights); err != nil {
		return err
	}
	pos, minW, sum := 0, math.Inf(1), 0.0
	for _, w := range weights {
		if w > 0 {
			pos++
			if w < minW {
				minW = w
			}
			sum += w
		}
	}
	s.weights, s.pos, s.minW, s.meanW = weights, pos, minW, sum/float64(pos)
	return nil
}

// Sample appends k sampled indices to dst in ascending (key, index) order
// and returns the extended slice: the SampleWithoutReplacement draw, on
// the caller's rand.Rand.
func (s *KeySampler) Sample(rng *rand.Rand, k int, dst []int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	n := len(s.weights)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	keys := grow(&s.bits, n)
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
		keys[i], out[i] = u, i
	}
	// A weight so small that its key overflows is never drawn, like a
	// zero weight.
	if k = min(k, finite); k == 0 {
		return dst[:start], nil
	}
	thr, take, equal := s.kthSmallest(keys, k, lo, hi)
	dst = dst[:start+emit(out, keys, thr, take, equal)]
	// Winners arrive in index order and keys is still indexed by index, so
	// a stable sort on the key bits leaves exact ties in index order.
	slices.SortStableFunc(dst[start:], func(a, b int) int {
		return cmp.Compare(keys[a], keys[b])
	})
	return dst, nil
}

// SampleSet draws from a Stream the keys that Sample draws from a rand.Rand
// of the same seed, leaves the Stream where Sample leaves the rand.Rand,
// and appends the same k winners to dst, but in ascending index order.
// Callers that only count the winners need no other order. It may grow
// dst's capacity by up to len(weights), the room its branch-free passes
// write through.
//
// The key loop (drawKeys) stores each Exp(1) draw e and keeps,
// branch-free and in index order, the candidates whose key e/w can be at
// most a threshold τ: e <= τ·(1+2⁻⁴⁸)·w, a multiply whose margin covers
// its own and the division's rounding as long as the product is normal
// (otherwise τ is +Inf). Only candidates divide. If at least k of their
// keys are finite and at most τ, every key that can win is among them,
// and the winners are the k smallest (key, index) pairs of the
// candidates. Otherwise every positive weight becomes a candidate, which
// is Sample's full select. τ is a hint (see threshold): any τ gives the
// same winners and leaves the Stream in the same place; a good one leaves
// about k+3√k candidates, a select sized to them and a rare full select.
func (s *KeySampler) SampleSet(rng *Stream, k int, dst []int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	n := len(s.weights)
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	out := dst[start:]
	grow(&s.exps, n)
	tau := s.threshold(k)
	tw := tau * (1 + 0x1p-48)
	if !(tw >= 0x1p-1022 && tw*s.minW >= 0x1p-1022) {
		tau, tw = math.Inf(1), math.Inf(1)
	}
	m := s.drawKeys(rng, tw, out)

	keys := grow(&s.bits, n)
	lo, hi, finite, under := s.candidateKeys(out[:m], keys, tau)
	if under < k && !math.IsInf(tau, 1) {
		m = 0
		for i, w := range s.weights {
			out[m] = i
			if w > 0 {
				m++
			}
		}
		lo, hi, finite, _ = s.candidateKeys(out[:m], keys, tau)
	}
	if k = min(k, finite); k == 0 {
		return dst[:start], nil
	}
	thr, take, equal := s.kthSmallest(keys[:m], k, lo, hi)
	// The hint learns: ratio moves halfway to this draw's k-th key over
	// the model's.
	if r := math.Float64frombits(thr) / s.model(k); r > 0 && r <= math.MaxFloat64 {
		s.ratio = cmp.Or(s.ratio, r)/2 + r/2
	}
	return dst[:start+emit(out[:m], keys[:m], thr, take, equal)], nil
}

// drawKeys draws one Exp(1) per positive weight into s.exps, in index
// order, and writes to out, in index order, the indices whose draw e is at
// most tw·w, returning their count. It keeps the Stream's indices in
// locals and steps the generator in segments in which neither index
// wraps, so a draw is two loads, an add and a store; it inlines the
// ziggurat's fast path, which takes about 98% of draws, and leaves the
// loop for the rest, so that the call out of line does not make the loop
// spill.
func (s *KeySampler) drawKeys(rng *Stream, tw float64, out []int) int {
	ws := s.weights
	exps := s.exps[:len(ws)]
	vec, feed, tap := &rng.vec, rng.feed, rng.tap
	i, m := 0, 0
	for i < len(ws) {
		if feed == 0 {
			feed = rngLen
		}
		if tap == 0 {
			tap = rngLen
		}
		var j uint32
		slow := false
		for seg := min(feed, tap); i < len(ws) && seg > 0; i++ {
			w := ws[i]
			if w <= 0 {
				continue
			}
			feed, tap, seg = feed-1, tap-1, seg-1
			x := vec[feed] + vec[tap]
			vec[feed] = x
			j = uint32(uint64(x) >> 31) // rand.Rand.Uint32
			b := j & 0xFF
			if j >= ke[b] {
				slow = true
				break
			}
			e := float64(j) * float64(we[b])
			exps[i] = e
			out[m] = i
			if e <= tw*w {
				m++
			}
		}
		if slow {
			rng.feed, rng.tap = feed, tap
			e := rng.expFrom(j)
			feed, tap = rng.feed, rng.tap
			exps[i] = e
			out[m] = i
			if e <= tw*ws[i] {
				m++
			}
			i++
		}
	}
	rng.feed, rng.tap = feed%rngLen, tap%rngLen
	return m
}

// hintMargin is the threshold's margin in standard deviations of a k-th
// key, whose relative spread is about 1/√k.
const hintMargin = 3

// model approximates the k-th smallest key of pos equal weights of the
// mean weight, for 0 < k < pos: about −ln(1−p)/mean for p = k/(pos+1),
// here its rational approximation p(1−p/2)/(1−p), within 1% of it for
// p ≤ 0.2. Skewed weights shift the true value by a factor that the
// running ratio learns.
func (s *KeySampler) model(k int) float64 {
	p := float64(k) / float64(s.pos+1)
	return p * (1 - p/2) / ((1 - p) * s.meanW)
}

// threshold is SampleSet's hint τ for a draw of k: the model scaled by
// the ratio earlier draws' k-th keys bore to it, plus the margin. It is
// +Inf when there is no ratio yet, when k is 0 or leaves no positive
// weight out, and when the product is not a positive number.
func (s *KeySampler) threshold(k int) float64 {
	if s.ratio == 0 || k >= s.pos {
		return math.Inf(1)
	}
	tau := s.ratio * s.model(k) * (1 + hintMargin/math.Sqrt(float64(k)))
	if !(tau > 0) {
		return math.Inf(1)
	}
	return tau
}

// candidateKeys stores the keys of the candidate indices cand, aligned
// with them, in keys and returns the range [lo, hi] and count of the
// finite ones and how many keys are at most tau.
func (s *KeySampler) candidateKeys(cand []int, keys []uint64, tau float64) (lo, hi uint64, finite, under int) {
	tb := math.Float64bits(tau)
	lo = infBits
	keys = keys[:len(cand)]
	for c, i := range cand {
		u := math.Float64bits(s.exps[i] / s.weights[i])
		keys[c] = u
		if u < infBits {
			finite++
			lo, hi = min(lo, u), max(hi, u)
		}
		if u <= tb {
			under++
		}
	}
	return lo, hi, finite, under
}

// grow returns *buf resized to n, reusing its array when it is large
// enough. The contents are unspecified.
func grow[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// emit keeps, in place and in order, the entries of idx whose aligned key
// is among the k smallest (key, index) pairs, given the k-th smallest key
// thr, how many keys equal to it are among the k smallest (take) and how
// many there are (equal): every key below thr and the first take of those
// equal to it. It returns how many it kept. When take is equal, it keeps
// every key at most thr without a branch per key: each entry is written,
// and kept by advancing j.
func emit(idx []int, keys []uint64, thr uint64, take, equal int) int {
	keys = keys[:len(idx)]
	j := 0
	if take == equal {
		for c, u := range keys {
			idx[j] = idx[c]
			if u <= thr {
				j++
			}
		}
		return j
	}
	for c, u := range keys {
		if u < thr || u == thr && take > 0 {
			if u == thr {
				take--
			}
			idx[j] = idx[c]
			j++
		}
	}
	return j
}

// kthSmallest returns the k-th smallest of the finite keys, given their
// range [lo, hi], with take, how many keys equal to it are among the k
// smallest, and equal, how many keys equal it; keys outside [lo, hi]
// (+Inf) are ignored. Each round histograms the candidates in [lo, hi]
// into bins of (u-lo)>>shift, sized to the candidates (at most 256, so
// every round removes at least log₂ of their count in bits of the range),
// keeps only the candidates in the bin holding rank k, and shrinks
// [lo, hi] to their range; the loop ends when one value is left.
func (s *KeySampler) kthSmallest(keys []uint64, k int, lo, hi uint64) (thr uint64, take, equal int) {
	cand := keys
	s.cand = slices.Grow(s.cand[:0], len(cand))
	for {
		width := min(bits.Len(uint(len(cand))), 8)
		shift := max(bits.Len64(hi-lo)-width, 0)
		hist := s.hist[:1<<width]
		clear(hist)
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
		if lo == hi {
			return lo, k, len(cand)
		}
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
