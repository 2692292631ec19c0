package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestBucketEmptySample(t *testing.T) {
	est := Bucket{}.EstimateSum(freqstats.NewSample())
	if est.Valid {
		t.Error("empty sample produced a valid estimate")
	}
	if got := (Bucket{}).Buckets(freqstats.NewSample()); got != nil {
		t.Errorf("Buckets on empty = %v", got)
	}
}

func TestBucketSingleValue(t *testing.T) {
	s := freqstats.NewSample()
	mustAdd(t, s, "a", 5, "s1")
	mustAdd(t, s, "a", 5, "s2")
	mustAdd(t, s, "b", 5, "s1")
	mustAdd(t, s, "b", 5, "s2")
	est := Bucket{}.EstimateSum(s)
	if !est.Valid {
		t.Fatalf("flags: %+v", est)
	}
	// Complete coverage: Delta = 0.
	if est.Delta != 0 {
		t.Errorf("Delta = %g, want 0", est.Delta)
	}
	buckets := Bucket{}.Buckets(s)
	if len(buckets) != 1 {
		t.Errorf("buckets = %v", bucketRanges(buckets))
	}
}

// The dynamic split must never increase the overall |Delta| compared to
// the unsplit (naive) estimate — that is its defining conservative
// property (Section 3.3.2).
func TestDynamicNeverWorseThanNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g, err := sim.NewGroundTruth(randx.New(seed), sim.Config{N: 60, Lambda: 2, Rho: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Integrate(randx.New(seed+100), g, sim.IntegrationConfig{
			NumSources: 12, SourceSize: 15, Interleave: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := st.Prefix(st.Len())
		if err != nil {
			t.Fatal(err)
		}
		naive := Naive{}.EstimateSum(s)
		bucket := Bucket{}.EstimateSum(s)
		if naive.Diverged || bucket.Diverged {
			continue
		}
		if math.Abs(bucket.Delta) > math.Abs(naive.Delta)+1e-9 {
			t.Errorf("seed %d: |bucket Delta| %.2f > |naive Delta| %.2f",
				seed, math.Abs(bucket.Delta), math.Abs(naive.Delta))
		}
	}
}

// Buckets returned by every strategy must partition the sample: disjoint
// value ranges whose sub-samples cover every unique entity exactly once.
func TestStrategiesPartitionSample(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(3), sim.Config{N: 50, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(4), g, sim.IntegrationConfig{NumSources: 10, SourceSize: 12, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(st.Len())
	if err != nil {
		t.Fatal(err)
	}
	strategies := []BucketStrategy{
		Dynamic{},
		EquiWidth{K: 1}, EquiWidth{K: 4}, EquiWidth{K: 10},
		EquiHeight{K: 1}, EquiHeight{K: 4}, EquiHeight{K: 10},
	}
	for _, strat := range strategies {
		t.Run(strat.Name(), func(t *testing.T) {
			buckets := strat.Split(s, Naive{})
			var total, totalN int
			var sum float64
			for _, b := range buckets {
				sub := b.Sample()
				total += sub.C()
				totalN += sub.N()
				sum += sub.SumValues()
				if err := sub.CheckInvariants(); err != nil {
					t.Error(err)
				}
				if sub.C() != b.C || sub.N() != b.N || math.Float64bits(sub.SumValues()) != math.Float64bits(b.Sum) {
					t.Errorf("bucket [%g,%g]: aggregates c=%d n=%d sum=%v, sub-sample c=%d n=%d sum=%v",
						b.Lo, b.Hi, b.C, b.N, b.Sum, sub.C(), sub.N(), sub.SumValues())
				}
			}
			if total != s.C() {
				t.Errorf("buckets cover %d unique entities, sample has %d", total, s.C())
			}
			if totalN != s.N() {
				t.Errorf("buckets cover %d observations, sample has %d", totalN, s.N())
			}
			if math.Abs(sum-s.SumValues()) > 1e-6 {
				t.Errorf("bucket value sum %g != sample sum %g", sum, s.SumValues())
			}
		})
	}
}

func TestEquiWidthBucketCount(t *testing.T) {
	s := freqstats.NewSample()
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("e%d", i)
		mustAdd(t, s, id, float64(i+1)*10, "s1")
		mustAdd(t, s, id, float64(i+1)*10, "s2")
	}
	buckets := EquiWidth{K: 4}.Split(s, Naive{})
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(buckets))
	}
	// Equal widths.
	w := buckets[0].Hi - buckets[0].Lo
	for _, b := range buckets[1:] {
		if math.Abs((b.Hi-b.Lo)-w) > 1e-9 {
			t.Errorf("unequal widths: %g vs %g", b.Hi-b.Lo, w)
		}
	}
}

func TestEquiWidthDropsEmptyBuckets(t *testing.T) {
	s := freqstats.NewSample()
	// Values clustered at both extremes: middle buckets are empty.
	mustAdd(t, s, "a", 0, "s1")
	mustAdd(t, s, "a", 0, "s2")
	mustAdd(t, s, "b", 1000, "s1")
	mustAdd(t, s, "b", 1000, "s2")
	buckets := EquiWidth{K: 10}.Split(s, Naive{})
	if len(buckets) != 2 {
		t.Errorf("bucket count = %d, want 2 non-empty", len(buckets))
	}
}

func TestEquiHeightBalances(t *testing.T) {
	s := freqstats.NewSample()
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("e%d", i)
		mustAdd(t, s, id, float64(i), "s1")
		mustAdd(t, s, id, float64(i), "s2")
	}
	buckets := EquiHeight{K: 4}.Split(s, Naive{})
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(buckets))
	}
	for _, b := range buckets {
		if b.C < 9 || b.C > 11 {
			t.Errorf("bucket %g-%g holds %d entities, want ~10", b.Lo, b.Hi, b.C)
		}
	}
}

func TestStaticBucketSingletonDivergence(t *testing.T) {
	// A bucket whose entities are all singletons must be flagged.
	s := freqstats.NewSample()
	// Low range: well-observed. High range: a lone singleton.
	mustAdd(t, s, "a", 10, "s1")
	mustAdd(t, s, "a", 10, "s2")
	mustAdd(t, s, "b", 20, "s1")
	mustAdd(t, s, "b", 20, "s2")
	mustAdd(t, s, "z", 1000, "s3")
	buckets := EquiWidth{K: 2}.Split(s, Naive{})
	if len(buckets) != 2 {
		t.Fatalf("buckets: %v", bucketRanges(buckets))
	}
	if !buckets[1].Est.Diverged {
		t.Error("singleton-only bucket not flagged as diverged")
	}
	est := Bucket{Strategy: EquiWidth{K: 2}}.EstimateSum(s)
	if !est.Diverged {
		t.Error("overall estimate not flagged when a bucket diverged")
	}
}

// With publicity-value correlation, the bucket estimator should beat
// naive on average — the paper's central claim (Section 6.2 middle row).
func TestBucketBeatsNaiveUnderCorrelation(t *testing.T) {
	var naiveErr, bucketErr float64
	const reps = 15
	for seed := int64(0); seed < reps; seed++ {
		g, err := sim.NewGroundTruth(randx.New(seed), sim.Config{N: 100, Lambda: 4, Rho: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Integrate(randx.New(seed+1000), g, sim.IntegrationConfig{
			NumSources: 100, SourceSize: 5, Interleave: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := st.Prefix(300)
		if err != nil {
			t.Fatal(err)
		}
		truth := g.Sum()
		naiveErr += math.Abs(Naive{}.EstimateSum(s).Estimated - truth)
		bucketErr += math.Abs(Bucket{}.EstimateSum(s).Estimated - truth)
	}
	if bucketErr >= naiveErr {
		t.Errorf("bucket mean error %.0f not better than naive %.0f under correlation",
			bucketErr/reps, naiveErr/reps)
	}
}

func TestBucketWithFrequencyInner(t *testing.T) {
	s := toyBefore(t)
	est := Bucket{Inner: Frequency{}}.EstimateSum(s)
	if !est.Valid {
		t.Fatalf("flags: %+v", est)
	}
	if math.IsNaN(est.Delta) || math.IsInf(est.Delta, 0) {
		t.Errorf("Delta = %g", est.Delta)
	}
}

// materializedInner hides the inner estimator's concrete type so bestSplit
// takes the generic path that materializes two filtered samples per
// candidate — the reference the prefix-statistics sweep must reproduce.
type materializedInner struct{ SumEstimator }

// TestSweepMatchesMaterializedSplit: the O(unique values) sweep must pick
// the same dynamic buckets as the materializing reference path, for both
// inners it covers (Naive and, with per-side singleton value sums,
// Frequency), with every estimate field equal. Integer values keep both
// paths' float accumulation exact, so the comparison is equality, not
// tolerance.
func TestSweepMatchesMaterializedSplit(t *testing.T) {
	for _, inner := range []SumEstimator{Naive{}, Frequency{}} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := freqstats.NewSample()
			for e := 0; e < 40; e++ {
				id := fmt.Sprintf("e%d", e)
				v := float64(rng.Intn(20) * 10)
				for k := 0; k <= rng.Intn(4); k++ {
					mustAdd(t, s, id, v, fmt.Sprintf("s%d", rng.Intn(6)))
				}
			}
			fast := Dynamic{}.Split(s, inner)
			ref := Dynamic{}.Split(s, materializedInner{inner})
			assertSameBuckets(t, fmt.Sprintf("%s seed %d", inner.Name(), seed), fast, ref)
		}
	}
}

func TestBucketsSortedByRange(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(5), sim.Config{N: 80, Lambda: 3, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(6), g, sim.IntegrationConfig{NumSources: 20, SourceSize: 15, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(st.Len())
	if err != nil {
		t.Fatal(err)
	}
	buckets := Bucket{}.Buckets(s)
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Lo < buckets[i-1].Lo {
			t.Fatalf("buckets not sorted: %v", bucketRanges(buckets))
		}
		if buckets[i].Lo < buckets[i-1].Hi-1e-9 {
			t.Fatalf("buckets overlap: %v", bucketRanges(buckets))
		}
	}
}

// assertSameBuckets requires got and want to be the same buckets bit for
// bit: ranges, aggregates, every estimate field and each bucket's
// materialized sub-sample. want comes from a materializing search, so its
// aggregates are read off its sub-samples.
func assertSameBuckets(t testing.TB, label string, got, want []BucketResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets %v, want %d %v", label, len(got), bucketRanges(got), len(want), bucketRanges(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if bits(g.Lo) != bits(w.Lo) || bits(g.Hi) != bits(w.Hi) {
			t.Errorf("%s bucket %d: range [%v,%v], want [%v,%v]", label, i, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		ws := w.Sample()
		if g.C != ws.C() || g.N != ws.N() || bits(g.Sum) != bits(ws.SumValues()) {
			t.Errorf("%s bucket %d: c=%d n=%d sum=%v, want c=%d n=%d sum=%v",
				label, i, g.C, g.N, g.Sum, ws.C(), ws.N(), ws.SumValues())
		}
		if !sameEstimate(g.Est, w.Est) {
			t.Errorf("%s bucket %d: estimate %+v, want %+v", label, i, g.Est, w.Est)
		}
		gs := g.Sample()
		if gs.Fingerprint() != ws.Fingerprint() {
			t.Errorf("%s bucket %d: sub-sample fingerprint differs", label, i)
		}
		if !maps.Equal(gs.SourceContributions(), ws.SourceContributions()) {
			t.Errorf("%s bucket %d: source contributions %v, want %v",
				label, i, gs.SourceContributions(), ws.SourceContributions())
		}
		if !slices.Equal(gs.SourceSizes(), ws.SourceSizes()) {
			t.Errorf("%s bucket %d: source sizes %v, want %v", label, i, gs.SourceSizes(), ws.SourceSizes())
		}
	}
}

// referenceDynamicSplit is the dynamic strategy searched on materialized
// buckets: every split re-sorts its bucket, sweeps it, and materializes
// both children with FilterRange. It is the oracle the index-range search
// must reproduce bit for bit.
func referenceDynamicSplit(s *freqstats.Sample, inner SumEstimator) []BucketResult {
	values := s.Values()
	lo, ok := stats.Min(values)
	if !ok {
		return nil
	}
	hi, _ := stats.Max(values)

	todo := []BucketResult{rangeSample(s, inner, lo, hi, true)}
	var done []BucketResult

	for len(todo) > 0 {
		b := todo[0]
		todo = todo[1:]
		rest := costSum(todo) + costSum(done)

		var best [2]BucketResult
		var ok bool
		switch inner.(type) {
		case Naive:
			best, ok = referenceBestSplitSweep(b, inner, rest, naiveSplitCost)
		case Frequency:
			best, ok = referenceBestSplitSweep(b, inner, rest, freqSplitCost)
		default:
			best, ok = bestSplit(b, inner, rest)
		}
		if ok {
			todo = append(todo, best[0], best[1])
		} else {
			done = append(done, b)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Lo < done[j].Lo })
	return done
}

// referenceBestSplitSweep is the prefix-statistics sweep over a
// materialized bucket that referenceDynamicSplit uses.
func referenceBestSplitSweep(b BucketResult, inner SumEstimator, rest float64, cost func(sideStats) float64) ([2]BucketResult, bool) {
	s := b.Sample()
	ids := s.Entities()
	type entity struct {
		value float64
		count int
	}
	ents := make([]entity, len(ids))
	for i, id := range ids {
		v, _ := s.Value(id)
		ents[i] = entity{value: v, count: s.Count(id)}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].value < ents[j].value })
	if len(ents) < 2 || ents[0].value == ents[len(ents)-1].value {
		return [2]BucketResult{}, false
	}

	accumulate := func(st *sideStats, e entity, sign int) {
		st.n += sign * e.count
		st.c += sign
		if e.count == 1 {
			st.f1 += sign
		}
		st.s2 += sign * e.count * (e.count - 1)
	}
	suffixSum := make([]float64, len(ents)+1)
	suffixF1Sum := make([]float64, len(ents)+1)
	for i := len(ents) - 1; i >= 0; i-- {
		suffixSum[i] = suffixSum[i+1] + ents[i].value
		suffixF1Sum[i] = suffixF1Sum[i+1]
		if ents[i].count == 1 {
			suffixF1Sum[i] += ents[i].value
		}
	}
	var left sideStats
	var right sideStats
	for _, e := range ents {
		accumulate(&right, e, 1)
	}
	right.sum = suffixSum[0]
	right.f1sum = suffixF1Sum[0]

	deltaMin := rest + splitCost(b)
	bestValue := 0.0
	found := false
	for i := 1; i < len(ents); i++ {
		e := ents[i-1]
		accumulate(&left, e, 1)
		left.sum += e.value
		if e.count == 1 {
			left.f1sum += e.value
		}
		accumulate(&right, e, -1)
		right.sum = suffixSum[i]
		right.f1sum = suffixF1Sum[i]
		if ents[i].value == e.value {
			continue
		}
		cand := rest + cost(left) + cost(right)
		if deltaMin > cand {
			deltaMin = cand
			bestValue = ents[i].value
			found = true
		}
	}
	if !found {
		return [2]BucketResult{}, false
	}
	t1 := rangeSample(s, inner, b.Lo, bestValue, false)
	t2 := rangeSample(s, inner, bestValue, b.Hi, true)
	return [2]BucketResult{t1, t2}, true
}

// syntheticCuts returns the 16 "value > k" restrictions of the correlated
// synthetic population (2000 entities, 10 sources x 200 draws): k runs
// through the 16-quantiles of the entity values, so the cuts range from
// the whole sample to its top sixteenth.
func syntheticCuts(t testing.TB) []*freqstats.Sample {
	return syntheticCutsOf(t, 2000, 200)
}

// syntheticCutsOf is syntheticCuts of a population of the given number of
// entities, sampled by 10 sources of perSource draws each.
func syntheticCutsOf(t testing.TB, entities, perSource int) []*freqstats.Sample {
	t.Helper()
	d, err := dataset.Synthetic(1, entities, 1, 0.5, 10, perSource)
	if err != nil {
		t.Fatal(err)
	}
	s := freqstats.NewSample()
	if err := s.AddAll(d.Stream.Observations); err != nil {
		t.Fatal(err)
	}
	values := s.Values()
	sort.Float64s(values)
	out := make([]*freqstats.Sample, 16)
	for i := range out {
		k := values[i*len(values)/16] - 1
		out[i] = s.Filter(func(_ string, v float64) bool { return v > k })
	}
	return out
}

// paritySample draws n entities with values by mode — 0: integers with
// many repeats, 1: normal, 2: exponential, 3: each entity picks one of the
// three — where with probability tieRate/256 an entity reuses an earlier
// entity's value. Half the entities are singletons; the rest are seen up
// to six times by eight sources.
func paritySample(t testing.TB, seed int64, n int, mode, tieRate uint8) *freqstats.Sample {
	rng := rand.New(rand.NewSource(seed))
	s := freqstats.NewSample()
	values := make([]float64, 0, n)
	for e := 0; e < n; e++ {
		m := int(mode % 4)
		if m == 3 {
			m = rng.Intn(3)
		}
		var v float64
		switch m {
		case 0:
			v = float64(rng.Intn(30) * 10)
		case 1:
			v = rng.NormFloat64()*150 + 400
		case 2:
			v = rng.ExpFloat64() * 250
		}
		if len(values) > 0 && rng.Intn(256) < int(tieRate) {
			v = values[rng.Intn(len(values))]
		}
		values = append(values, v)
		id := fmt.Sprintf("e%d", e)
		for count := 1; ; count++ {
			mustAdd(t, s, id, v, fmt.Sprintf("s%d", rng.Intn(8)))
			if count == 6 || rng.Intn(2) == 0 {
				break
			}
		}
	}
	return s
}

// checkDynamicParity compares the index-range search with the reference
// for both inners it serves.
func checkDynamicParity(t testing.TB, label string, s *freqstats.Sample) {
	t.Helper()
	for _, inner := range []SumEstimator{Naive{}, Frequency{}} {
		l := label + " " + inner.Name()
		assertSameBuckets(t, l, Dynamic{}.Split(s, inner), referenceDynamicSplit(s, inner))
	}
}

// TestDynamicSplitMatchesReference: the index-range search yields the
// reference's buckets bit for bit on the synthetic cuts, on float-valued
// samples with ties, and on degenerate samples.
func TestDynamicSplitMatchesReference(t *testing.T) {
	for i, s := range syntheticCuts(t) {
		checkDynamicParity(t, fmt.Sprintf("synthetic cut %d", i), s)
	}
	for seed := int64(0); seed < 50; seed++ {
		mode, tie := uint8(seed%4), uint8(seed*37%256)
		checkDynamicParity(t, fmt.Sprintf("seed %d mode %d tie %d", seed, mode, tie),
			paritySample(t, seed, 20+int(seed)*7, mode, tie))
	}

	for name, s := range edgeSamples(t) {
		checkDynamicParity(t, name, s)
	}
}

// edgeSamples are the degenerate samples the parity tests cover: a NaN
// value inside the range and observed first, a single entity, a single
// distinct value, and pure singletons.
func edgeSamples(t testing.TB) map[string]*freqstats.Sample {
	edge := map[string]func(s *freqstats.Sample){
		"NaN value": func(s *freqstats.Sample) {
			mustAdd(t, s, "a", 10, "s1")
			mustAdd(t, s, "a", 10, "s2")
			mustAdd(t, s, "nan", math.NaN(), "s1")
			mustAdd(t, s, "b", 20, "s1")
			mustAdd(t, s, "c", 30, "s2")
			mustAdd(t, s, "c", 30, "s3")
		},
		"NaN value observed first": func(s *freqstats.Sample) {
			mustAdd(t, s, "nan", math.NaN(), "s1")
			mustAdd(t, s, "a", 10, "s1")
			mustAdd(t, s, "a", 10, "s2")
			mustAdd(t, s, "b", 20, "s1")
		},
		"single entity": func(s *freqstats.Sample) {
			mustAdd(t, s, "a", 5, "s1")
			mustAdd(t, s, "a", 5, "s2")
		},
		"single distinct value": func(s *freqstats.Sample) {
			for i := 0; i < 6; i++ {
				for j := 0; j <= i%3; j++ {
					mustAdd(t, s, fmt.Sprintf("e%d", i), 7.5, fmt.Sprintf("s%d", j))
				}
			}
		},
		"pure singletons": func(s *freqstats.Sample) {
			for i := 0; i < 8; i++ {
				mustAdd(t, s, fmt.Sprintf("e%d", i), float64(i)*1.25, fmt.Sprintf("s%d", i%3))
			}
		},
	}
	out := make(map[string]*freqstats.Sample, len(edge))
	for name, build := range edge {
		s := freqstats.NewSample()
		build(s)
		out[name] = s
	}
	return out
}

// deepSplitSeeds are FuzzDynamicSplitParity inputs whose split tree is at
// least four levels deep for both inners (TestDeepSplitSeeds), so the
// corpus always holds ranges that read side costs inherited twice over.
var deepSplitSeeds = []struct {
	seed          int64
	n             uint16
	mode, tieRate uint8
}{
	{1, 250, 1, 53},
	{2, 250, 2, 106},
	{3, 60, 3, 159},
	{6, 60, 2, 62},
	{7, 120, 3, 115},
}

// FuzzDynamicSplitParity: for any sample paritySample can draw, the
// index-range search and the reference agree bit for bit, and every side
// cost the search reads equals that side summed from scratch.
func FuzzDynamicSplitParity(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), uint8(0))
	f.Add(int64(2), uint16(120), uint8(1), uint8(64))
	f.Add(int64(3), uint16(200), uint8(2), uint8(200))
	f.Add(int64(4), uint16(3), uint8(3), uint8(255))
	for _, d := range deepSplitSeeds {
		f.Add(d.seed, d.n, d.mode, d.tieRate)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode, tieRate uint8) {
		s := fuzzSample(t, seed, n, mode, tieRate)
		label := fmt.Sprintf("seed %d n %d mode %d tie %d", seed, n, mode, tieRate)
		checkDynamicParity(t, label, s)
		checkSideInheritance(t, label, s)
	})
}

// fuzzSample is the sample FuzzDynamicSplitParity draws for its inputs.
func fuzzSample(t testing.TB, seed int64, n uint16, mode, tieRate uint8) *freqstats.Sample {
	return paritySample(t, seed, 1+int(n%300), mode, tieRate)
}

// TestDeepSplitSeeds: each deepSplitSeeds input splits at least four
// levels deep with either inner.
func TestDeepSplitSeeds(t *testing.T) {
	for _, d := range deepSplitSeeds {
		s := fuzzSample(t, d.seed, d.n, d.mode, d.tieRate)
		for _, in := range statsInners {
			label := fmt.Sprintf("seed %d n %d mode %d tie %d %s", d.seed, d.n, d.mode, d.tieRate, in.inner.Name())
			if levels, _ := replaySplit(t, label, s, in.freq, nil); levels < 4 {
				t.Errorf("%s: split tree has %d levels, want at least 4", label, levels)
			}
		}
	}
}

// replaySplit runs splitRanges' search on s (Frequency's with freq) step by
// step through the same splitSearch methods and calls swept, when not nil,
// after every sweep with the range swept. It returns the number of levels
// of the split tree (the root alone is one) and how many side and bucket
// costs the search priced, and fails unless the replay ends in the
// buckets splitRanges returns.
func replaySplit(t testing.TB, label string, s *freqstats.Sample, freq bool, swept func(p *splitSearch, b valueRange)) (levels, pricings int) {
	t.Helper()
	p, ok := newSplitSearch(s, freq)
	if !ok {
		return 0, 0
	}
	cost := p.cost
	p.cost = func(st sideStats) float64 {
		pricings++
		return cost(st)
	}
	level := map[[2]int]int{}
	root := p.root()
	level[[2]int{root.i, root.j}] = 1
	todo := []valueRange{root}
	var done []valueRange
	for len(todo) > 0 {
		b := todo[0]
		todo = todo[1:]
		lv := level[[2]int{b.i, b.j}]
		levels = max(levels, lv)
		k, ok := p.sweep(b, rangeCosts(todo)+rangeCosts(done))
		if swept != nil {
			swept(p, b)
		}
		if !ok {
			done = append(done, b)
			continue
		}
		l, r := p.split(b, k)
		level[[2]int{l.i, l.j}], level[[2]int{r.i, r.j}] = lv+1, lv+1
		todo = append(todo, l, r)
	}
	slices.SortFunc(done, func(a, b valueRange) int { return cmp.Compare(a.lo, b.lo) })
	want := splitRanges(s, freq)
	if len(done) != len(want) {
		t.Fatalf("%s: replay ends in %d buckets, splitRanges in %d", label, len(done), len(want))
	}
	for i, b := range done {
		w := want[i]
		if math.Float64bits(b.lo) != math.Float64bits(w.Lo) || math.Float64bits(b.hi) != math.Float64bits(w.Hi) || b.st.c != w.C || b.st.n != w.N {
			t.Fatalf("%s: replay bucket %d is [%v,%v) c=%d n=%d, splitRanges [%v,%v) c=%d n=%d",
				label, i, b.lo, b.hi, b.st.c, b.st.n, w.Lo, w.Hi, w.C, w.N)
		}
	}
	return levels, pricings
}

// checkSideInheritance: for every range the search sweeps and every
// boundary k between unique values in it, the side costs the sweep reads
// (costL[k] and costR[k]) are bit for bit the costs of the two sides
// summed from scratch for that range — the left side forward from the
// range start, the right side backward from its end — for both inners,
// although a child range only prices the side it does not share with its
// parent.
func checkSideInheritance(t testing.TB, label string, s *freqstats.Sample) {
	t.Helper()
	bits := math.Float64bits
	for _, in := range statsInners {
		replaySplit(t, label, s, in.freq, func(p *splitSearch, b valueRange) {
			t.Helper()
			sorted := p.x.sorted
			var left, right sideStats
			for k := b.i + 1; k < b.j; k++ {
				left.add(sorted[k-1])
				if sorted[k].value != sorted[k-1].value {
					if want := in.cost(left); bits(p.costL[k]) != bits(want) {
						t.Fatalf("%s %s range [%d,%d) boundary %d: left cost %v, summed from the start %v",
							label, in.inner.Name(), b.i, b.j, k, p.costL[k], want)
					}
				}
			}
			for k := b.j - 1; k > b.i; k-- {
				right.add(sorted[k])
				if sorted[k].value != sorted[k-1].value {
					if want := in.cost(right); bits(p.costR[k]) != bits(want) {
						t.Fatalf("%s %s range [%d,%d) boundary %d: right cost %v, summed from the end %v",
							label, in.inner.Name(), b.i, b.j, k, p.costR[k], want)
					}
				}
			}
		})
	}
}

// TestSplitSidesInheritExactly runs checkSideInheritance on the synthetic
// cuts, on float-valued samples with ties, on the degenerate samples
// (NaN values included) and on signed zeros.
func TestSplitSidesInheritExactly(t *testing.T) {
	for i, s := range syntheticCuts(t) {
		checkSideInheritance(t, fmt.Sprintf("synthetic cut %d", i), s)
	}
	for seed := int64(0); seed < 50; seed++ {
		mode, tie := uint8(seed%4), uint8(seed*37%256)
		checkSideInheritance(t, fmt.Sprintf("seed %d mode %d tie %d", seed, mode, tie),
			paritySample(t, seed, 20+int(seed)*7, mode, tie))
	}
	for name, s := range edgeSamples(t) {
		checkSideInheritance(t, name, s)
	}
	checkSideInheritance(t, "signed zeros", signedZeroSample(t))
}

// TestSplitPricingsPerCut: on the 16 "value > k" cuts of the 20000-entity
// synthetic population (the synthetic-avg workload's), children inherit
// the side they share with their parent, so the search prices at most
// 43,000 side and bucket costs per cut on average. Pricing both sides of
// every boundary in every sweep took 72,121.
func TestSplitPricingsPerCut(t *testing.T) {
	cuts := syntheticCutsOf(t, 20000, 2000)
	var total, both int
	for i, s := range cuts {
		label := fmt.Sprintf("synthetic cut %d", i)
		_, n := replaySplit(t, label, s, false, func(p *splitSearch, b valueRange) {
			for k := b.i + 1; k < b.j; k++ {
				if p.x.sorted[k].value != p.x.sorted[k-1].value {
					both += 2
				}
			}
		})
		total += n
		// Both schemes price every bucket of the split tree once: 2L-1
		// buckets for L leaves.
		both += 2*len(splitRanges(s, false)) - 1
	}
	mean := float64(total) / float64(len(cuts))
	t.Logf("costs priced per cut: %.0f, pricing both sides of every boundary: %.0f",
		mean, float64(both)/float64(len(cuts)))
	if mean > 43000 {
		t.Errorf("%.0f costs priced per cut, want at most 43,000", mean)
	}
}

// TestRangeIndexBucketCostMatchesMaterialized: the aggregates the
// partition pass (rangeIndex.split) sums for a bucket price it exactly as
// its materialized sub-sample: the estimate field for field and the cost
// bit for bit, for every inner the index-range search serves, on float
// values where the summation order shows in the last bits. Each sample is
// cut by a random sequence of splits, so later splits partition ranges an
// earlier split already reordered.
func TestRangeIndexBucketCostMatchesMaterialized(t *testing.T) {
	samples := syntheticCuts(t)[:4]
	for seed := int64(0); seed < 12; seed++ {
		samples = append(samples, paritySample(t, seed, 80, uint8(1+seed%3), 40))
	}
	samples = append(samples, signedZeroSample(t))
	rng := rand.New(rand.NewSource(1))
	for si, s := range samples {
		x, scratch, ok := newRangeIndex(s)
		if !ok {
			t.Fatal("empty sample")
		}
		check := func(b valueRange) {
			t.Helper()
			if !slices.IsSortedFunc(x.bySeq[b.i:b.j], func(a, b rangeEnt) int { return cmp.Compare(a.seq, b.seq) }) {
				t.Fatalf("sample %d range [%d,%d): bySeq out of first-observation order", si, b.i, b.j)
			}
			sub := s.FilterRange(b.lo, b.hi, b.j == len(x.sorted))
			if b.st.c != sub.C() || b.st.n != sub.N() {
				t.Fatalf("sample %d range [%d,%d): c=%d n=%d, materialized c=%d n=%d",
					si, b.i, b.j, b.st.c, b.st.n, sub.C(), sub.N())
			}
			for _, in := range statsInners {
				want := in.inner.EstimateSum(sub)
				if got := statsEstimate(b.st, in.freq); !sameEstimate(got, want) {
					t.Fatalf("sample %d %s range [%d,%d): estimate %+v, materialized %+v",
						si, in.inner.Name(), b.i, b.j, got, want)
				}
				got, wantCost := in.cost(b.st), splitCost(BucketResult{Est: want})
				if math.Float64bits(got) != math.Float64bits(wantCost) {
					t.Fatalf("sample %d %s range [%d,%d): cost %v, materialized %v",
						si, in.inner.Name(), b.i, b.j, got, wantCost)
				}
			}
		}
		ranges := []valueRange{x.root()}
		check(ranges[0])
		for trial := 0; trial < 30; trial++ {
			r := rng.Intn(len(ranges))
			b := ranges[r]
			var cuts []int // sorted indexes inside b where a new value starts
			for k := b.i + 1; k < b.j; k++ {
				if x.sorted[k-1].value != x.sorted[k].value {
					cuts = append(cuts, k)
				}
			}
			if len(cuts) == 0 {
				continue
			}
			l, rt := x.split(b, cuts[rng.Intn(len(cuts))], scratch)
			check(l)
			check(rt)
			ranges = append(append(ranges[:r:r], ranges[r+1:]...), l, rt)
		}
	}
}

// signedZeroSample draws 60 entities valued -0, +0 or one of a few
// non-zero values, so both zeros appear in either first-observation order,
// each seen one to three times by four sources.
func signedZeroSample(t testing.TB) *freqstats.Sample {
	pool := []float64{math.Copysign(0, -1), 0, -2.5, -1, 1, 3.75, 8}
	rng := rand.New(rand.NewSource(7))
	s := freqstats.NewSample()
	for e := 0; e < 60; e++ {
		v := pool[rng.Intn(len(pool))]
		for k := 0; k <= rng.Intn(3); k++ {
			mustAdd(t, s, fmt.Sprintf("e%d", e), v, fmt.Sprintf("s%d", (e+k)%4))
		}
	}
	return s
}

// TestRangeIndexRadixOrder: the radix-sorted index orders the root range
// exactly as a comparison sort by (cmp.Compare(value), first-observation
// index) does. Signed zeros tie in either first-observation order;
// infinities, subnormals and the extreme finite values take their places;
// interior NaNs stay out of the root range and a leading NaN empties it.
func TestRangeIndexRadixOrder(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, value func() float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = value()
		}
		return out
	}
	cases := []struct {
		name   string
		values []float64
	}{
		{"signed zeros, -0 first", []float64{negZero, 0, 2, negZero, -2, 0}},
		{"signed zeros, +0 first", []float64{0, negZero, -2, 0, negZero, 2}},
		{"infinities, subnormals and extremes", []float64{1, math.Inf(1), -math.MaxFloat64, tiny,
			math.MaxFloat64, -tiny, math.Inf(-1), 0, 2 * tiny, -2 * tiny, negZero, math.MaxFloat64, math.Inf(-1)}},
		{"all equal", []float64{3.5, 3.5, 3.5, 3.5, 3.5}},
		{"single entity", []float64{42}},
		{"heavy ties", draw(400, func() float64 { return float64(rng.Intn(4)) - 1.5 })},
		{"random normals", draw(500, func() float64 { return rng.NormFloat64() * 1e3 })},
		{"random magnitudes", draw(500, func() float64 {
			return math.Copysign(math.Ldexp(rng.Float64(), rng.Intn(2100)-1074), rng.Float64()-0.5)
		})},
		{"interior NaNs", []float64{2, nan, 1, nan, 3, 1, nan}},
		{"leading NaN", []float64{nan, 1, 2, negZero}},
	}
	for _, tc := range cases {
		s := freqstats.NewSample()
		for i, v := range tc.values {
			mustAdd(t, s, fmt.Sprintf("e%d", i), v, "s")
		}
		x, spare, ok := newRangeIndex(s)
		if !ok {
			t.Fatalf("%s: empty index", tc.name)
		}
		var want []rangeEnt // the root range in first-observation order
		if !math.IsNaN(tc.values[0]) {
			for i, v := range tc.values {
				if !math.IsNaN(v) {
					want = append(want, rangeEnt{value: v, count: 1, seq: int32(i)})
				}
			}
		}
		if !slices.Equal(x.bySeq, want) {
			t.Fatalf("%s: bySeq %v, want %v", tc.name, x.bySeq, want)
		}
		slices.SortFunc(want, func(a, b rangeEnt) int {
			if c := cmp.Compare(a.value, b.value); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if len(spare) != len(want) {
			t.Errorf("%s: spare buffer holds %d entities, want %d", tc.name, len(spare), len(want))
		}
		if len(x.sorted) != len(want) {
			t.Fatalf("%s: sorted holds %d entities, want %d", tc.name, len(x.sorted), len(want))
		}
		for i, e := range x.sorted {
			if e.seq != want[i].seq || math.Float64bits(e.value) != math.Float64bits(want[i].value) {
				t.Fatalf("%s: sorted[%d] = %v (seq %d), comparison sort has %v (seq %d)",
					tc.name, i, e.value, e.seq, want[i].value, want[i].seq)
			}
		}
	}
}

// statsInners are the inner estimators the index-range search prices on
// aggregates, with their statsEstimate flag and cost function.
var statsInners = []struct {
	inner SumEstimator
	freq  bool
	cost  func(sideStats) float64
}{{Naive{}, false, naiveSplitCost}, {Frequency{}, true, freqSplitCost}}

// sampleStats sums s's aggregates in first-observation order, as the
// partition pass sums a bucket's.
func sampleStats(s *freqstats.Sample) sideStats {
	var st sideStats
	s.EachEntity(func(v float64, count int) { st.add(rangeEnt{value: v, count: int32(count)}) })
	return st
}

// sameEstimate reports whether a and b agree in every field, floats bit
// for bit.
func sameEstimate(a, b Estimate) bool {
	bits := math.Float64bits
	return bits(a.Delta) == bits(b.Delta) && bits(a.Observed) == bits(b.Observed) &&
		bits(a.Estimated) == bits(b.Estimated) && bits(a.CountEstimated) == bits(b.CountEstimated) &&
		bits(a.Coverage) == bits(b.Coverage) && a.CountObserved == b.CountObserved &&
		a.Valid == b.Valid && a.Diverged == b.Diverged && a.LowCoverage == b.LowCoverage
}

// TestStatsEstimateMatchesEstimateSum: the estimate built from a bucket's
// first-observation-order aggregates is Naive{}.EstimateSum and
// Frequency{}.EstimateSum of the bucket field for field, degenerate
// buckets included.
func TestStatsEstimateMatchesEstimateSum(t *testing.T) {
	type obs struct {
		id    string
		value float64
		times int
	}
	cases := []struct {
		name string
		obs  []obs
	}{
		{"empty", nil},
		{"n = 1", []obs{{"a", 7, 1}}},
		{"pure singletons", []obs{{"a", 1.5, 1}, {"b", 2.25, 1}, {"c", 40, 1}}},
		{"f1 = 0", []obs{{"a", 10, 2}, {"b", 20, 3}, {"c", 30, 2}}},
		{"one doubleton", []obs{{"a", 3, 2}}},
		{"mixed integers", []obs{{"a", 10, 1}, {"b", 20, 2}, {"c", 30, 1}, {"d", 40, 4}}},
		// Coverage 1 - 7/10 = 0.3: valid, not diverged, low coverage.
		{"low coverage", []obs{{"a", 1, 1}, {"b", 2, 1}, {"c", 3, 1}, {"d", 4, 1}, {"e", 5, 1}, {"f", 6, 1}, {"g", 7, 1}, {"h", 8, 3}}},
		// Added in first-observation order 0.3+0.2+0.1 == 0.6; in value
		// order the sum is 0.6000000000000001.
		{"order-sensitive sums", []obs{{"a", 0.3, 1}, {"b", 0.2, 2}, {"c", 0.1, 1}, {"d", 5, 3}}},
		{"order-sensitive singleton sums", []obs{{"a", 0.3, 1}, {"b", 9, 2}, {"c", 0.2, 1}, {"d", 0.1, 1}}},
		{"huge values", []obs{{"a", math.MaxFloat64, 1}, {"b", math.MaxFloat64, 1}, {"c", 1, 2}}},
	}
	for _, tc := range cases {
		s := freqstats.NewSample()
		for _, o := range tc.obs {
			for k := 0; k < o.times; k++ {
				mustAdd(t, s, o.id, o.value, fmt.Sprintf("s%d", k))
			}
		}
		st := sampleStats(s)
		for _, in := range statsInners {
			want := in.inner.EstimateSum(s)
			if got := statsEstimate(st, in.freq); !sameEstimate(got, want) {
				t.Errorf("%s %s: estimate %+v, EstimateSum %+v", tc.name, in.inner.Name(), got, want)
			}
			if got, wantCost := in.cost(st), splitCost(BucketResult{Est: want}); math.Float64bits(got) != math.Float64bits(wantCost) {
				t.Errorf("%s %s: cost %v, materialized %v", tc.name, in.inner.Name(), got, wantCost)
			}
		}
	}
	// The order-sensitive cases only test something if value order would
	// have summed differently.
	a, b, c := 0.3, 0.2, 0.1 // variables: constant arithmetic is exact
	if seq, value := a+b+c, c+b+a; seq == value {
		t.Fatalf("0.3, 0.2, 0.1 sum to %v in either order; the fixtures test nothing", seq)
	}
}

// BenchmarkRangeIndex builds the dynamic search's range index for the 16
// "value > k" cuts of the synthetic-avg population (20000 entities, 10
// sources x 2000 draws): the value-sort and entity walk a filtered AVG,
// MEDIAN or MAX query pays before its candidate sweep.
func BenchmarkRangeIndex(b *testing.B) {
	cuts := syntheticCutsOf(b, 20000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range cuts {
			newRangeIndex(s)
		}
	}
}

// BenchmarkDynamicSplit runs the default dynamic split (Naive inner) over
// the 16 synthetic "value > k" cuts, the bucket layer of a filtered AVG
// or MEDIAN query on the correlated synthetic population: the small
// population of syntheticCuts, and the 20000-entity one (10 sources x
// 2000 draws) that the synthetic-avg workload queries.
func BenchmarkDynamicSplit(b *testing.B) {
	for _, size := range []struct{ entities, perSource int }{{2000, 200}, {20000, 2000}} {
		b.Run(fmt.Sprintf("entities=%d", size.entities), func(b *testing.B) {
			cuts := syntheticCutsOf(b, size.entities, size.perSource)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range cuts {
					Dynamic{}.Split(s, Naive{})
				}
			}
		})
	}
}
