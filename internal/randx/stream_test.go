package randx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Stream is a drop-in rand.Source64.
var _ rand.Source64 = (*Stream)(nil)

// newStream returns a Stream seeded with seed.
func newStream(seed int64) *Stream {
	r := new(Stream)
	r.Seed(seed)
	return r
}

// streamSeeds are the seeds Stream must match math/rand on: the seed
// reduction's edge cases (0 and every multiple of 2³¹−1 map to 89482311,
// negatives wrap) and 200 Derive outputs like the Monte-Carlo grid's.
func streamSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1, 1 - int32max,
		2 * int32max, -2 * int32max, 12345 * int32max, -98765 * int32max,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
		89482311, -89482311, 89482311 + int32max, 1 << 31, 1 << 62, -1 << 62,
	}
	for i := range 200 {
		seeds = append(seeds, Derive(7, int64(i/5), int64(i%5)))
	}
	return seeds
}

// drawOp makes draw number op on both generators and reports whether they
// agree: Int63, Uint64, Float64 and ExpFloat64 in turn.
func drawOp(op int, got *Stream, want *rand.Rand) (g, w float64, ok bool) {
	switch op % 4 {
	case 0:
		a, b := got.Int63(), want.Int63()
		return float64(a), float64(b), a == b
	case 1:
		a, b := got.Uint64(), want.Uint64()
		return float64(a), float64(b), a == b
	case 2:
		g, w = got.Float64(), want.Float64()
	default:
		g, w = got.ExpFloat64(), want.ExpFloat64()
	}
	return g, w, math.Float64bits(g) == math.Float64bits(w)
}

// Stream yields math/rand's values draw for draw, across interleaved
// methods and re-seeds in mid-stream, on the seed edge cases.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := streamSeeds()
	for si, seed := range seeds {
		got, want := newStream(seed), rand.New(rand.NewSource(seed))
		for op := range 3000 {
			if op == 1500 { // re-seed both in mid-stream
				next := seeds[(si+1)%len(seeds)]
				got.Seed(next)
				want.Seed(next)
			}
			if g, w, ok := drawOp(op*7/3, got, want); !ok {
				t.Fatalf("seed %d, draw %d (op %d): Stream %v, math/rand %v", seed, op, op*7/3%4, g, w)
			}
		}
	}
}

// zigguratReplay is a third copy of math/rand's ExpFloat64 on a raw
// Source that counts which exits it takes: slow[i] counts the wedge tests
// of layer i ≥ 1, and slow[0] the i == 0 tail draws.
func zigguratReplay(src rand.Source, slow *[256]int) float64 {
	uniform := func() float64 {
		for {
			if f := float64(src.Int63()) / (1 << 63); f != 1 {
				return f
			}
		}
	}
	for {
		j := uint32(src.Int63() >> 31)
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		slow[i]++
		if i == 0 {
			return re - math.Log(uniform())
		}
		if fe[i]+float32(uniform())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// A long ExpFloat64 run on one seed matches math/rand, with the replay's
// counts showing that every layer's slow path and the tail were taken.
func TestStreamExpFloat64SlowPaths(t *testing.T) {
	const seed, draws = 20161026, 20_000_000
	got, want, replay := newStream(seed), rand.New(rand.NewSource(seed)), rand.NewSource(seed)
	var slow [256]int
	for d := range draws {
		g, w, r := got.ExpFloat64(), want.ExpFloat64(), zigguratReplay(replay, &slow)
		if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(r) != math.Float64bits(w) {
			t.Fatalf("draw %d: Stream %v, math/rand %v, replay %v", d, g, w, r)
		}
	}
	for i, n := range slow {
		if n == 0 {
			t.Errorf("layer %d: slow path never taken in %d draws", i, draws)
		}
	}
	t.Logf("%d tail draws; fewest wedge tests in a layer: %d", slow[0], slices.Min(slow[1:]))
}

// FuzzStreamMatchesMathRand drives a Stream and a rand.Rand of the same
// seed through one op sequence. Each op byte picks Int63, Uint64, Float64
// or ExpFloat64 (low two bits) and a run length (bits 3 to 7), or, with
// bit 2 set, re-seeds both, by Derive or by a multiple of 2³¹−1 added to
// the seed.
func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3})
	f.Add(int64(-1), []byte{0xFB, 0xFB, 0xFB, 0xFB, 0xFB, 0xF8, 0xF9, 0xFA})
	f.Add(int64(math.MinInt64), []byte{4, 0xFF, 0x0C, 0xFB, 5})
	f.Add(int64(int32max), []byte{0xFB, 0xFA, 0xF9, 0xF8, 6, 0xFB})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := newStream(seed), rand.New(rand.NewSource(seed))
		for i, b := range ops {
			if b&4 != 0 {
				next := Derive(seed, int64(i))
				if b&1 != 0 {
					next = seed + int64(int8(b))*int32max
				}
				got.Seed(next)
				want.Seed(next)
				continue
			}
			for range 1 + int(b>>3) {
				if g, w, ok := drawOp(int(b), got, want); !ok {
					t.Fatalf("op %d (%#x): Stream %v, math/rand %v", i, b, g, w)
				}
			}
		}
	})
}
