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
// SampleSet runs on one fresh KeySampler under each of hints in turn.
func checkAgainstReference(t *testing.T, newRNG func() *rand.Rand, newStream func() *Stream, weights []float64, k int) {
	t.Helper()
	rngWant := newRNG()
	want, wantErr := referenceSampleWithoutReplacement(rngWant, weights, k)
	next := rngWant.Int63()

	rngGot := newRNG()
	got, gotErr := SampleWithoutReplacement(rngGot, weights, k)
	checkDraw(t, fmt.Sprintf("Sample n=%d k=%d", len(weights), k), got, gotErr, rngGot, want, wantErr, next)

	if newStream == nil {
		return
	}
	s, err := NewKeySampler(weights)
	for _, h := range hints {
		if err == nil {
			h.set(s, k)
		}
		checkSampleSet(t, fmt.Sprintf("SampleSet/%s n=%d k=%d", h.name, len(weights), k), s, err, newStream(), k, want, wantErr, next)
	}
}

// checkSampleSet checks one SampleSet draw of k on s, or s's construction
// error newErr, against the reference's winners and error and the value
// next that the reference's rand.Rand drew after them.
func checkSampleSet(t *testing.T, method string, s *KeySampler, newErr error, stream *Stream, k int, want []int, wantErr error, next int64) {
	t.Helper()
	var set []int
	gotErr := newErr
	if gotErr == nil {
		set, gotErr = s.SampleSet(stream, k, nil)
	}
	checkDraw(t, method, set, gotErr, stream, slices.Sorted(slices.Values(want)), wantErr, next)
}

// checkDraw compares a draw's winners and error with the reference's, and
// the generator's next value with next.
func checkDraw(t *testing.T, method string, got []int, gotErr error, rng interface{ Int63() int64 }, want []int, wantErr error, next int64) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", method, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s:\n got %v\nwant %v", method, got, want)
	}
	if rng.Int63() != next {
		t.Fatalf("%s: RNG stream consumed differently from the reference", method)
	}
}

// hints are the threshold states SampleSet is checked under: learned from
// one earlier draw of the same k, so that most draws select among
// candidates; far too tight, so that every draw with k > 0 falls back to
// the full select; and +Inf, which makes every positive weight a
// candidate.
var hints = []struct {
	name string
	set  func(s *KeySampler, k int)
}{
	{"learned", func(s *KeySampler, k int) { _, _ = s.SampleSet(newStream(-1), k, nil) }},
	{"tight", func(s *KeySampler, _ int) { s.ratio = 0x1p-40 }},
	{"inf", func(s *KeySampler, _ int) { s.ratio = math.Inf(1) }},
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
// overflow to +Inf. After the check under each fixed hint, one
// KeySampler makes several draws of varying k, each on its own seed, so
// that the hint it carries from draw to draw is fuzzed too.
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
	f.Add(int64(10), uint16(256), int16(32), -0.4, uint64(0), false)
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
		draw := func(d int64) (func() *rand.Rand, func() *Stream) {
			if ties {
				return func() *rand.Rand { return rand.New(constSource(0)) }, func() *Stream { return new(Stream) }
			}
			return seeded(seed + d), seededStream(seed + d)
		}
		newRNG, newStream := draw(0)
		checkAgainstReference(t, newRNG, newStream, w, int(k))

		s, newErr := NewKeySampler(w)
		for d, kd := range []int{int(k), int(k) / 2, int(k) + 3, int(k) / 4, int(k) * 2, int(k)} {
			newRNG, newStream := draw(int64(d) + 1)
			rng := newRNG()
			want, wantErr := referenceSampleWithoutReplacement(rng, w, kd)
			checkSampleSet(t, fmt.Sprintf("SampleSet/carried/draw %d k=%d", d, kd), s, newErr, newStream(), kd, want, wantErr, rng.Int63())
		}
	})
}

// SampleSet keeps the winners through every selection path: candidates
// under a learned hint, the fallback under a tight one and every positive
// weight under +Inf (checkAgainstReference runs each), on k at or past the
// number of finite keys, zero weights, keys that overflow to +Inf and
// exact key ties.
func TestSampleSetSelectionPaths(t *testing.T) {
	skew := ExponentialWeights(256, 0.4)
	zeros := slices.Clone(skew)
	for i := 0; i < len(zeros); i += 3 {
		zeros[i] = 0
	}
	// The tail is subnormal or zero: keys overflow from about index 57.
	overflow := ExponentialWeights(64, 80)
	finite := 0
	for _, w := range overflow {
		if w >= 0x1p-1020 {
			finite++
		}
	}
	ties := slices.Repeat([]float64{1}, 40)
	for _, c := range []struct {
		name string
		w    []float64
		ks   []int
	}{
		{"uniform", ExponentialWeights(256, 0), []int{1, 32, 128}},
		{"skewed", skew, []int{1, 5, 32, 200, 255}},
		{"k past positives", zeros, []int{170, 171, 172, 200}},
		{"zero weights", zeros, []int{1, 20, 100}},
		{"overflow", overflow, []int{1, finite - 1, finite, finite + 1, 60, 64}},
	} {
		for _, k := range c.ks {
			seed := Derive(int64(len(c.w)), int64(k))
			t.Run(fmt.Sprintf("%s/k=%d", c.name, k), func(t *testing.T) {
				checkAgainstReference(t, seeded(seed), seededStream(seed), c.w, k)
			})
		}
	}
	// Every key is 0: the winners are the lowest indices.
	for _, k := range []int{1, 6, 40, 41} {
		checkAgainstReference(t, func() *rand.Rand { return rand.New(constSource(0)) },
			func() *Stream { return new(Stream) }, ties, k)
	}
}

// A learned hint makes almost every draw select among candidates, and a
// tight one makes every draw fall back. Whether a draw could take the
// candidate path is read off the reference's keys: at least k of them at
// most the threshold the sampler holds before the draw.
func TestSampleSetHintQuality(t *testing.T) {
	const n, k, draws = 256, 32, 200
	for _, lambda := range []float64{-0.4, 0, 0.4} {
		w := ExponentialWeights(n, lambda)
		s, err := NewKeySampler(w)
		if err != nil {
			t.Fatal(err)
		}
		fast := 0
		for d := range int64(draws) {
			tau := s.threshold(k)
			rng := New(d)
			under := 0
			for _, wi := range w {
				if rng.ExpFloat64()/wi <= tau {
					under++
				}
			}
			if under >= k {
				fast++
			}
			if _, err := s.SampleSet(newStream(d), k, nil); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("lambda=%g: %d of %d draws could select among candidates", lambda, fast, draws)
		if fast < draws*9/10 {
			t.Errorf("lambda=%g: only %d of %d draws could select among candidates", lambda, fast, draws)
		}
		s.ratio = 0x1p-40
		if tau := s.threshold(k); tau > 1e-6 {
			t.Errorf("lambda=%g: tight hint gives threshold %g", lambda, tau)
		}
	}
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

// BenchmarkKeySampler times one draw on the Monte-Carlo grid's lambda
// range, at n=500, k=50 and at crowd-sum's shape, N-hat=256 and n_j=32.
// The draws sub-benchmark only draws the n keys from a Stream, the floor
// set by the RNG-stream contract; the gap to SampleSet, which draws the
// same keys in its fused loop, is the selection. SampleSet/fallback
// spoils the threshold hint before every draw, so every draw takes the
// full select. Sample draws the keys from a rand.Rand and also sorts the
// k winners.
func BenchmarkKeySampler(b *testing.B) {
	for _, shape := range [][2]int{{500, 50}, {256, 32}} {
		n, k := shape[0], shape[1]
		for _, lambda := range []float64{-0.4, 0, 0.4} {
			w := ExponentialWeights(n, lambda)
			s, err := NewKeySampler(w)
			if err != nil {
				b.Fatal(err)
			}
			rng, stream := New(1), newStream(1)
			var dst []int
			name := fmt.Sprintf("n=%d,k=%d/lambda=%g", n, k, lambda)
			b.Run(name+"/draws", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for _, wi := range w {
						keySink += stream.ExpFloat64() / wi
					}
				}
			})
			b.Run(name+"/SampleSet", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					dst, _ = s.SampleSet(stream, k, dst[:0])
				}
			})
			b.Run(name+"/SampleSetFallback", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					s.ratio = 0x1p-30
					dst, _ = s.SampleSet(stream, k, dst[:0])
				}
			})
			b.Run(name+"/Sample", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					dst, _ = s.Sample(rng, k, dst[:0])
				}
			})
		}
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
