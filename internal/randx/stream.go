package randx

import "math"

// Stream is Go's math/rand generator, the additive lagged-Fibonacci source
// x[n] = x[n-607] + x[n-273] (mod 2⁶⁴), as a concrete type: for every seed
// it yields the values of rand.New(rand.NewSource(seed)) draw for draw,
// through Int63, Uint64, Float64 and ExpFloat64, re-seeds included.
// TestStreamMatchesMathRand and FuzzStreamMatchesMathRand hold it to that
// oracle. Being concrete, its draws inline into hot loops instead of going
// through the rand.Source interface, and KeySampler.SampleSet fuses them
// into its key loop.
//
// Seed builds the same 607-word state as math/rand without its serial
// chain of 1,841 Lehmer steps: every word it needs is the seed times a
// precomputed power of the Lehmer multiplier, modulo 2³¹−1.
//
// Seeds are reduced modulo 2³¹−1 exactly as math/rand reduces them, so
// 64-bit seeds that agree modulo 2³¹−1 give the same stream; at most about
// 2³¹ streams are distinct.
//
// A Stream also implements rand.Source64. It is not safe for concurrent
// use. The zero Stream yields only zeros; seed it before use.
type Stream struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

// lehmerA is the multiplier of math/rand's seeding generator
// x[n+1] = 48271·x[n] mod (2³¹−1).
const lehmerA = 48271

// lcgPow holds lehmerA^(21+3i+j) mod (2³¹−1) at [i][j]: the seeding
// generator's state after 21+3i+j steps from the seed 1. math/rand seeds
// word i of its state from steps 21+3i, 22+3i and 23+3i of the chain.
var lcgPow = func() (t [rngLen][3]uint64) {
	x := uint64(1)
	for range 20 {
		x = x * lehmerA % int32max
	}
	for i := range t {
		for j := range t[i] {
			x = x * lehmerA % int32max
			t[i][j] = x
		}
	}
	return t
}()

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, without a division:
// 2³¹ ≡ 1, so the product's high bits fold onto its low bits.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31 // at most 2·(2³¹−1)
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Seed initializes the generator to the state rand.NewSource(seed) has.
func (r *Stream) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	for i := range r.vec {
		p := &lcgPow[i]
		r.vec[i] = int64(mulMod(x, p[0]))<<40 ^ int64(mulMod(x, p[1]))<<20 ^
			int64(mulMod(x, p[2])) ^ rngCooked[i]
	}
}

// step advances the generator whose feed and tap indices are feed and tap,
// so that a loop can keep them in registers, and returns the new word and
// indices.
func step(vec *[rngLen]int64, feed, tap int) (x uint64, newFeed, newTap int) {
	tap--
	if tap < 0 {
		tap += rngLen
	}
	feed--
	if feed < 0 {
		feed += rngLen
	}
	v := vec[feed] + vec[tap]
	vec[feed] = v
	return uint64(v), feed, tap
}

// Uint64 returns a pseudo-random 64-bit value, as math/rand's source does.
func (r *Stream) Uint64() uint64 {
	x, feed, tap := step(&r.vec, r.feed, r.tap)
	r.feed, r.tap = feed, tap
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer, as
// rand.Rand.Int63 does.
func (r *Stream) Int63() int64 { return int64(r.Uint64() & rngMask) }

// uint32 is rand.Rand.Uint32: bits 31 to 62 of the next word.
func (r *Stream) uint32() uint32 { return uint32(r.Uint64() >> 31) }

// Float64 returns a pseudo-random number in [0, 1), as rand.Rand.Float64
// does.
func (r *Stream) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// ExpFloat64 returns an exponentially distributed number with rate 1, as
// rand.Rand.ExpFloat64 does.
func (r *Stream) ExpFloat64() float64 { return r.expFrom(r.uint32()) }

// expFrom is rand.Rand.ExpFloat64's ziggurat loop, entered with its first
// 32-bit draw j already taken. KeySampler.SampleSet inlines the fast path,
// j < ke[j&0xFF], and calls expFrom for the rest.
func (r *Stream) expFrom(j uint32) float64 {
	for {
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
		j = r.uint32()
	}
}
