package randx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestExponentialWeights(t *testing.T) {
	if w := ExponentialWeights(0, 1); w != nil {
		t.Errorf("n=0 should return nil, got %v", w)
	}

	// lambda = 0 is uniform.
	w := ExponentialWeights(5, 0)
	for i, x := range w {
		if x != 1 {
			t.Errorf("uniform weight[%d] = %g, want 1", i, x)
		}
	}

	// lambda > 0 strictly decreases.
	w = ExponentialWeights(10, 1)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing at %d: %g >= %g", i, w[i], w[i-1])
		}
	}

	// Shape is size-independent: head/tail ratio depends only on lambda.
	w10 := ExponentialWeights(10, 2)
	w100 := ExponentialWeights(100, 2)
	r10 := w10[0] / w10[len(w10)-1]
	r100 := w100[0] / w100[len(w100)-1]
	// ratios: exp(lambda*10*(n-1)/n) -> close but not identical; same order.
	if math.Abs(math.Log(r10)-math.Log(r100)) > 2.1 {
		t.Errorf("shape not size-independent: ratios %g vs %g", r10, r100)
	}

	// lambda < 0 strictly increases (reverse skew).
	w = ExponentialWeights(10, -1)
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("negative lambda weights not increasing at %d", i)
		}
	}
}

func TestUniformAndZipfWeights(t *testing.T) {
	if w := ZipfWeights(0, 1); w != nil {
		t.Error("ZipfWeights(0) should be nil")
	}
	// Exponent 0 is the uniform publicity model.
	for i, w := range ZipfWeights(5, 0) {
		if w != 1 {
			t.Errorf("zipf s=0 [%d] = %g, want 1", i, w)
		}
	}
	w := ZipfWeights(4, 1)
	want := []float64{1, 0.5, 1.0 / 3.0, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("zipf[%d] = %g, want %g", i, w[i], want[i])
		}
	}
}

func TestSampleWithoutReplacementNoDuplicates(t *testing.T) {
	rng := New(7)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		k := rng.Intn(n + 10) // may exceed n: clamped
		w := ExponentialWeights(n, 2)
		s, err := SampleWithoutReplacement(rng, w, k)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool, len(s))
		for _, idx := range s {
			if idx < 0 || idx >= n {
				t.Fatalf("index %d out of range [0,%d)", idx, n)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d in without-replacement sample", idx)
			}
			seen[idx] = true
		}
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			t.Fatalf("len = %d, want %d", len(s), wantLen)
		}
	}
}

func TestSampleWithoutReplacementSkipsZeroWeights(t *testing.T) {
	rng := New(3)
	w := []float64{0, 1, 0, 1, 0}
	s, err := SampleWithoutReplacement(rng, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("len = %d, want 2 (only two positive weights)", len(s))
	}
	for _, idx := range s {
		if idx != 1 && idx != 3 {
			t.Fatalf("drew zero-weight index %d", idx)
		}
	}
}

func TestSampleWithoutReplacementBiased(t *testing.T) {
	// With strongly skewed weights, the top item should almost always be in
	// a small sample.
	rng := New(9)
	w := ExponentialWeights(100, 4)
	hit := 0
	for trial := 0; trial < 200; trial++ {
		s, err := SampleWithoutReplacement(rng, w, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range s {
			if idx == 0 {
				hit++
				break
			}
		}
	}
	if hit < 190 {
		t.Errorf("top-weight item appeared in only %d/200 samples", hit)
	}
}

// referenceSampleWithoutReplacement is the original full-sort
// implementation: one key per index, sort.Slice over all n keys, take the
// first k finite ones. It is the oracle for the k-smallest selection. The
// original comparator left exact key ties to the unstable sort; here they
// go to the lower index, the documented tie rule. ExpFloat64 has about
// 2^32 distinct fast-path values, so ties do occur at n in the thousands.
func referenceSampleWithoutReplacement(rng *rand.Rand, weights []float64, k int) ([]int, error) {
	if err := validateWeights(weights); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("randx: negative sample size %d", k)
	}
	if k > len(weights) {
		k = len(weights)
	}
	type keyed struct {
		key float64
		idx int
	}
	keys := make([]keyed, len(weights))
	for i, w := range weights {
		if w <= 0 {
			keys[i] = keyed{key: math.Inf(1), idx: i}
			continue
		}
		keys[i] = keyed{key: rng.ExpFloat64() / w, idx: i}
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a].key < keys[b].key || (keys[a].key == keys[b].key && keys[a].idx < keys[b].idx)
	})
	out := make([]int, 0, k)
	for _, kv := range keys[:k] {
		if math.IsInf(kv.key, 1) {
			break
		}
		out = append(out, kv.idx)
	}
	return out, nil
}

// checkAgainstReference runs Sample and SampleSet against the reference on
// identical streams: Sample on newRNG's rand.Rand, SampleSet on newStream's
// Stream, which must yield the same values (SampleSet is skipped when
// newStream is nil). Sample must give the same indices in the same order,
// SampleSet the same indices in index order; both must match the
// reference's error outcome and consume the same number of RNG draws.
func checkAgainstReference(t *testing.T, newRNG func() *rand.Rand, newStream func() *Stream, weights []float64, k int) {
	t.Helper()
	rngWant := newRNG()
	want, wantErr := referenceSampleWithoutReplacement(rngWant, weights, k)
	next := rngWant.Int63()
	check := func(method string, got []int, gotErr error, rngGot interface{ Int63() int64 }, want []int) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s n=%d k=%d: error %v, reference error %v", method, len(weights), k, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s n=%d k=%d:\n got %v\nwant %v", method, len(weights), k, got, want)
		}
		if rngGot.Int63() != next {
			t.Fatalf("%s n=%d k=%d: RNG stream consumed differently from the reference", method, len(weights), k)
		}
	}

	rngGot := newRNG()
	got, gotErr := SampleWithoutReplacement(rngGot, weights, k)
	check("Sample", got, gotErr, rngGot, want)

	if newStream == nil {
		return
	}
	stream := newStream()
	var set []int
	s, gotErr := NewKeySampler(weights)
	if gotErr == nil {
		set, gotErr = s.SampleSet(stream, k, nil)
	}
	check("SampleSet", set, gotErr, stream, slices.Sorted(slices.Values(want)))
}

// seeded returns a constructor of identical seeded streams.
func seeded(seed int64) func() *rand.Rand {
	return func() *rand.Rand { return New(seed) }
}

// seededStream returns a constructor of Streams identical to seeded(seed).
func seededStream(seed int64) func() *Stream {
	return func() *Stream { return newStream(seed) }
}

func TestSampleWithoutReplacementMatchesFullSort(t *testing.T) {
	for _, n := range []int{1, 2, 50, 1000, 5000} {
		for _, k := range []int{0, 1, n - 1, n, n + 7} {
			for li := -4; li <= 4; li++ { // the Monte-Carlo lambda grid
				lambda := float64(li) / 10
				w := ExponentialWeights(n, lambda)
				seed := Derive(int64(n), int64(k), int64(li))
				checkAgainstReference(t, seeded(seed), seededStream(seed), w, k)

				// Interleaved zero weights: every third item is unpublicized.
				zw := slices.Clone(w)
				for i := 1; i < len(zw); i += 3 {
					zw[i] = 0
				}
				checkAgainstReference(t, seeded(seed+1), seededStream(seed+1), zw, k)
			}
		}
	}
}

// constSource makes every Int63 draw the same value, so every ExpFloat64
// (hence every key under equal weights) is identical.
type constSource int64

func (c constSource) Int63() int64 { return int64(c) }
func (constSource) Seed(int64)     {}

// Exact key ties are broken by index: the lowest indices win and come out
// in index order. The zero Stream draws only zeros, like constSource(0).
func TestSampleWithoutReplacementTiesGoToLowestIndex(t *testing.T) {
	for _, src := range []constSource{0, 12345 << 31} {
		rng := rand.New(src)
		w := slices.Repeat([]float64{1}, 20)
		w[3] = 0 // skipped, not counted as a tie
		got, err := SampleWithoutReplacement(rng, w, 6)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 4, 5, 6}; !slices.Equal(got, want) {
			t.Fatalf("source %d: tied sample %v, want %v", src, got, want)
		}
		var newStream func() *Stream
		if src == 0 {
			newStream = func() *Stream { return new(Stream) }
		}
		checkAgainstReference(t, func() *rand.Rand { return rand.New(src) }, newStream, w, 6)
	}
}

// Reusing one KeySampler across draws gives exactly what fresh calls give.
func TestKeySamplerReuseMatchesFreshCalls(t *testing.T) {
	w := ExponentialWeights(300, 0.3)
	s, err := NewKeySampler(w)
	if err != nil {
		t.Fatal(err)
	}
	rngA, rngB := New(17), New(17)
	var buf []int
	for _, k := range []int{40, 3, 0, 300, 12} {
		buf, err = s.Sample(rngA, k, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		want, err := SampleWithoutReplacement(rngB, w, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(buf, want) {
			t.Fatalf("k=%d: reused sampler %v, fresh call %v", k, buf, want)
		}
	}
	if _, err := s.Sample(rngA, -1, nil); err == nil {
		t.Error("negative k not reported")
	}
}

// FuzzSampleWithoutReplacement checks Sample on a rand.Rand and SampleSet
// on a Stream of the same seed against the full-sort reference. With ties
// set, every ExpFloat64 draw is 0 (a constSource(0) rand.Rand and the zero
// Stream), so every finite key is 0 and the radix select starts and ends
// at lo == hi. A large lambda makes tail weights subnormal, whose keys
// overflow to +Inf.
func FuzzSampleWithoutReplacement(f *testing.F) {
	f.Add(int64(1), uint16(50), int16(10), 0.2, uint64(0), false)
	f.Add(int64(2), uint16(1), int16(0), -0.4, uint64(0), false)
	f.Add(int64(3), uint16(1000), int16(1007), 0.4, uint64(0xAAAA), false)
	f.Add(int64(4), uint16(64), int16(63), 4.0, ^uint64(0)>>1, false)
	f.Add(int64(5), uint16(64), int16(60), 80.0, uint64(0), false)
	f.Add(int64(6), uint16(1000), int16(900), 80.0, uint64(0x10), false)
	f.Add(int64(7), uint16(50), int16(10), 0.3, uint64(0), true)
	f.Add(int64(8), uint16(64), int16(60), 80.0, uint64(0x5), true)
	f.Add(int64(9), uint16(50), int16(49), 0.0, uint64(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k int16, lambda float64, zeroMask uint64, ties bool) {
		if n == 0 || n > 5000 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
			return
		}
		w := ExponentialWeights(int(n), lambda)
		for i := range w {
			if zeroMask>>(i%64)&1 == 1 {
				w[i] = 0
			}
		}
		newRNG, newStream := seeded(seed), seededStream(seed)
		if ties {
			newRNG = func() *rand.Rand { return rand.New(constSource(0)) }
			newStream = func() *Stream { return new(Stream) }
		}
		checkAgainstReference(t, newRNG, newStream, w, int(k))
	})
}

func TestShuffle(t *testing.T) {
	rng := New(5)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := make([]int, len(xs))
	copy(orig, xs)
	Shuffle(rng, xs)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 36 {
		t.Errorf("shuffle changed contents: %v", xs)
	}
}

func TestDeterminism(t *testing.T) {
	w := ExponentialWeights(50, 1)
	a, err := SampleWithoutReplacement(New(123), w, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleWithoutReplacement(New(123), w, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different samples: %v vs %v", a, b)
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	// Same path: same seed.
	if Derive(1, 2, 3) != Derive(1, 2, 3) {
		t.Error("Derive not deterministic")
	}
	// Distinct base seeds, ids, and path lengths must all produce distinct
	// child seeds (no collisions among a realistic working set).
	seen := map[int64][]string{}
	add := func(label string, v int64) {
		seen[v] = append(seen[v], label)
	}
	for seed := int64(0); seed < 20; seed++ {
		for cell := int64(0); cell < 20; cell++ {
			for run := int64(0); run < 5; run++ {
				add("triple", Derive(seed, cell, run))
			}
			add("pair", Derive(seed, cell))
		}
		add("solo", Derive(seed))
	}
	for v, labels := range seen {
		if len(labels) > 1 {
			t.Fatalf("Derive collision on %d: %v", v, labels)
		}
	}
}

// keySink keeps the benchmarked draws from being optimized away.
var keySink float64

// BenchmarkKeySampler times one n=500, k=50 draw on the Monte-Carlo grid's
// lambda range. The draws sub-benchmark only draws the 500 keys from a
// Stream, the floor set by the RNG-stream contract; the gap to SampleSet,
// which draws the same keys in its fused loop, is the selection. Sample
// draws them from a rand.Rand and also sorts the k winners.
func BenchmarkKeySampler(b *testing.B) {
	const n, k = 500, 50
	for _, lambda := range []float64{-0.4, 0, 0.4} {
		w := ExponentialWeights(n, lambda)
		s, err := NewKeySampler(w)
		if err != nil {
			b.Fatal(err)
		}
		rng, stream := New(1), newStream(1)
		var dst []int
		b.Run(fmt.Sprintf("lambda=%g/draws", lambda), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, wi := range w {
					keySink += stream.ExpFloat64() / wi
				}
			}
		})
		b.Run(fmt.Sprintf("lambda=%g/SampleSet", lambda), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				dst, _ = s.SampleSet(stream, k, dst[:0])
			}
		})
		b.Run(fmt.Sprintf("lambda=%g/Sample", lambda), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				dst, _ = s.Sample(rng, k, dst[:0])
			}
		})
	}
}

// BenchmarkReseed times one re-seed, which the Monte-Carlo estimator pays
// per (grid cell, run): math/rand's serial seeding chain against Stream's
// precomputed powers.
func BenchmarkReseed(b *testing.B) {
	seed := int64(1)
	b.Run("math-rand", func(b *testing.B) {
		rng := New(0)
		for b.Loop() {
			seed = Derive(seed)
			rng.Seed(seed)
		}
	})
	b.Run("stream", func(b *testing.B) {
		rng := newStream(0)
		for b.Loop() {
			seed = Derive(seed)
			rng.Seed(seed)
		}
	})
}
