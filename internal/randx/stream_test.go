package randx

import (
	"math"
	"math/rand"
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

// Squeeze outcomes of a wedge test, counted per layer by zigguratReplay.
const (
	squeezeAccept = iota
	squeezeReject
	squeezeExact
)

// zigguratReplay is a third copy of math/rand's ExpFloat64 on a raw
// Source that counts which exits it takes: slow[0][0] counts the i == 0
// tail draws, and slow[i] for i ≥ 1 the wedge tests of layer i by how
// Stream's squeeze decides them. It fails t when a squeeze decision
// disagrees with math/rand's comparison, which decides the replay.
func zigguratReplay(t *testing.T, src rand.Source, slow *[256][3]int) float64 {
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
		if i == 0 {
			slow[0][0]++
			return re - math.Log(uniform())
		}
		f := uniform()
		accept := fe[i]+float32(f)*(fe[i-1]-fe[i]) < float32(math.Exp(-x))
		y := fe[i] + float32(f)*(fe[i-1]-fe[i])
		w := &wedge[i]
		switch {
		case float64(y) < w.tA-w.tB*x:
			slow[i][squeezeAccept]++
			if !accept {
				t.Fatalf("layer %d, x=%v, y=%v: squeeze accepts, math/rand rejects", i, x, y)
			}
		case float64(y) > w.cA-w.cB*x:
			slow[i][squeezeReject]++
			if accept {
				t.Fatalf("layer %d, x=%v, y=%v: squeeze rejects, math/rand accepts", i, x, y)
			}
		default:
			slow[i][squeezeExact]++
		}
		if accept {
			return x
		}
	}
}

// A long ExpFloat64 run on one seed matches math/rand, with the replay's
// counts showing that the tail and every layer's wedge test were taken,
// and that the wedge squeeze accepted, rejected and fell through to
// math.Exp, each at least once.
func TestStreamExpFloat64SlowPaths(t *testing.T) {
	const seed, draws = 20161026, 20_000_000
	got, want, replay := newStream(seed), rand.New(rand.NewSource(seed)), rand.NewSource(seed)
	var slow [256][3]int
	for d := range draws {
		g, w, r := got.ExpFloat64(), want.ExpFloat64(), zigguratReplay(t, replay, &slow)
		if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(r) != math.Float64bits(w) {
			t.Fatalf("draw %d: Stream %v, math/rand %v, replay %v", d, g, w, r)
		}
	}
	if slow[0][0] == 0 {
		t.Errorf("tail never taken in %d draws", draws)
	}
	var total [3]int
	for i := 1; i < len(slow); i++ {
		c := slow[i]
		if c[squeezeAccept]+c[squeezeReject]+c[squeezeExact] == 0 {
			t.Errorf("layer %d: wedge test never taken in %d draws", i, draws)
		}
		t.Logf("layer %3d: squeeze accepts %5d, rejects %5d, math.Exp %4d", i, c[squeezeAccept], c[squeezeReject], c[squeezeExact])
		for o, n := range c {
			total[o] += n
		}
	}
	for o, name := range []string{"accepted", "rejected", "fell through to math.Exp"} {
		if total[o] == 0 {
			t.Errorf("the wedge squeeze never %s in %d draws", name, draws)
		}
	}
	t.Logf("%d tail draws; wedge tests: %d squeeze accepts, %d squeeze rejects, %d math.Exp",
		slow[0][0], total[squeezeAccept], total[squeezeReject], total[squeezeExact])
}

// The squeeze lines keep their margin around e^(−x) over each layer's
// whole wedge: at both ends, where the chord meets the curve, at the
// midpoint, where the tangent does, and between.
func TestWedgeSqueezeBounds(t *testing.T) {
	for i := 1; i < len(wedge); i++ {
		w := &wedge[i]
		lo := uint64(ke[i])
		for s := range uint64(65) {
			j := lo + (1<<32-1-lo)*s/64
			x := float64(uint32(j)) * float64(we[i])
			e := math.Exp(-x)
			if tangent := w.tA - w.tB*x; tangent > e*(1-0x1p-21) {
				t.Errorf("layer %d, x=%v: tangent line %v not below e^(-x) = %v by the margin", i, x, tangent, e)
			}
			if chord := w.cA - w.cB*x; chord < e*(1+0x1p-21) {
				t.Errorf("layer %d, x=%v: chord line %v not above e^(-x) = %v by the margin", i, x, chord, e)
			}
		}
	}
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
