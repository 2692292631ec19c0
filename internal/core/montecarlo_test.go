package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/species"
	"repro/internal/stats"
)

func TestMonteCarloEmptyAndDegenerate(t *testing.T) {
	mc := MonteCarlo{Runs: 2}
	est := mc.EstimateSum(freqstats.NewSample())
	if est.Valid {
		t.Error("empty sample produced a valid estimate")
	}
	if n := mc.EstimateN(freqstats.NewSample()); n != 0 {
		t.Errorf("EstimateN on empty = %g", n)
	}

	// Fully covered sample: Chao92 == c, so MC short-circuits to c.
	s := freqstats.NewSample()
	for i := 0; i < 10; i++ {
		for k := 0; k < 3; k++ {
			mustAdd(t, s, string(rune('a'+i)), float64(i+1)*10, "s")
		}
	}
	if n := mc.EstimateN(s); n != 10 {
		t.Errorf("EstimateN on complete sample = %g, want 10", n)
	}
}

func TestMonteCarloWithinChaoRange(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(1), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(2), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 10, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(150)
	if err != nil {
		t.Fatal(err)
	}
	mc := MonteCarlo{Runs: 2, Seed: 3}
	nHat := mc.EstimateN(s)
	c := float64(s.C())
	chao := Naive{}.EstimateSum(s).CountEstimated
	if nHat < c-1e-9 || nHat > chao+1e-9 {
		t.Errorf("N-hat_MC = %g outside [c=%g, chao=%g]", nHat, c, chao)
	}
}

func TestMonteCarloDeterministicForSeed(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(4), sim.Config{N: 80, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(5), g, sim.IntegrationConfig{
		NumSources: 15, SourceSize: 10, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(120)
	if err != nil {
		t.Fatal(err)
	}
	a := MonteCarlo{Runs: 2, Seed: 42}.EstimateSum(s)
	b := MonteCarlo{Runs: 2, Seed: 42}.EstimateSum(s)
	if a.Estimated != b.Estimated {
		t.Errorf("same seed gave %g and %g", a.Estimated, b.Estimated)
	}
}

// Parallel fan-out must not cost reproducibility: for a fixed seed the
// estimate is bitwise identical across repeated runs and across any
// worker count, because every (cell, run) derives its own RNG stream.
func TestMonteCarloParallelBitwiseDeterministic(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(11), sim.Config{N: 90, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(12), g, sim.IntegrationConfig{
		NumSources: 18, SourceSize: 9, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(140)
	if err != nil {
		t.Fatal(err)
	}
	sequential := MonteCarlo{Runs: 3, Seed: 42, Workers: 1}.EstimateSum(s)
	for _, workers := range []int{0, 2, 7} {
		for rep := 0; rep < 3; rep++ {
			got := MonteCarlo{Runs: 3, Seed: 42, Workers: workers}.EstimateSum(s)
			if got.Estimated != sequential.Estimated || got.CountEstimated != sequential.CountEstimated {
				t.Fatalf("workers=%d rep=%d: estimate %v != sequential %v",
					workers, rep, got.Estimated, sequential.Estimated)
			}
		}
	}
}

// crowdCut returns the USTechEmployment observations with employees > k as
// a sample: the filtered sub-populations a crowd SUM/COUNT query feeds the
// Monte-Carlo estimator.
func crowdCut(t *testing.T, d *dataset.Dataset, k float64) *freqstats.Sample {
	t.Helper()
	s := freqstats.NewSample()
	for _, o := range d.Stream.Observations {
		if o.Value > k {
			if err := s.Add(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// The Monte-Carlo output bits are pinned for a fixed seed: EstimateN and
// EstimateSum, plus three raw grid-cell distances (the crowd estimates sit
// on the Chao92 edge of the grid, so the end results alone would not notice
// a changed simulation). Any change to the RNG stream, the sampler's
// selection or the profile distance arithmetic moves these bits.
func TestMonteCarloPinnedBits(t *testing.T) {
	d, err := dataset.USTechEmployment(1, 500, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	type cellBits [3]uint64 // cells (3, c, -0.4), (10, mid, 0), (17, chao, 0.3)
	cases := []struct {
		k        float64
		mc       MonteCarlo
		n, sum   uint64
		distance cellBits
	}{
		{-1, MonteCarlo{}, 0x40760df2272f40bf, 0x4154b43ae1e991e0,
			cellBits{0x40054962ff1d33de, 0x3fbafaa23838fccb, 0x3fe779b62757c547}},
		{-1, MonteCarlo{Runs: 3, Seed: 42}, 0x40760df2272f40bf, 0x4154b43ae1e991e0,
			cellBits{0x40056c939c85c6f4, 0x3fd6435e17db4d9d, 0x3fe57de089a41c70}},
		{100, MonteCarlo{}, 0x407500de6ab34ef5, 0x41543e155c020e0d,
			cellBits{0x40042c2dda6f771a, 0x3fd0e0af95e51f54, 0x3fe4b845543e0969}},
		{100, MonteCarlo{Runs: 3, Seed: 42}, 0x407500de6ab34ef5, 0x41543e155c020e0d,
			cellBits{0x4004afa829c25efb, 0x3fd06fbf9b829f81, 0x3febc0d2033a08f8}},
		{1000, MonteCarlo{}, 0x406ea8c4704a9af6, 0x4151ffbfe2942c5d,
			cellBits{0x4002b4bb7cedbebd, 0x3fcfb15e6d267ea0, 0x3fed5e86160a48b3}},
		{1000, MonteCarlo{Runs: 3, Seed: 42}, 0x406ea8c4704a9af6, 0x4151ffbfe2942c5d,
			cellBits{0x40020239c6764f08, 0x3fc4d552746f6f77, 0x3fec0de262e4182b}},
	}
	for _, tc := range cases {
		s := crowdCut(t, d, tc.k)
		name := fmt.Sprintf("employees>%g/runs=%d/seed=%d", tc.k, tc.mc.Runs, tc.mc.Seed)
		if got := math.Float64bits(tc.mc.EstimateN(s)); got != tc.n {
			t.Errorf("%s: EstimateN bits %#016x, want %#016x", name, got, tc.n)
		}
		if got := math.Float64bits(tc.mc.EstimateSum(s).Estimated); got != tc.sum {
			t.Errorf("%s: EstimateSum bits %#016x, want %#016x", name, got, tc.sum)
		}
		c, chao := float64(s.C()), species.Chao92(s).N
		sc := new(mcScratch) // one worker's buffers, reused across cells
		for i, lam := range []float64{-0.4, 0, 0.3} {
			thetaN := int(math.Round(c + float64(i)*(chao-c)/2))
			z := tc.mc.simulateDistance(sc, 7*i+3, thetaN, lam, s.SourceSizes(), s.OccurrenceCounts())
			if got := math.Float64bits(z); got != tc.distance[i] {
				t.Errorf("%s: cell %d distance bits %#016x, want %#016x", name, 7*i+3, got, tc.distance[i])
			}
		}
	}
}

// The headline robustness claim (Section 6.3): under the successive-
// exhaustive-streakers scenario the Chao92-based estimators blow up while
// Monte-Carlo stays near the observed sum.
func TestMonteCarloRobustToStreakers(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(6), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.SuccessiveExhaustive(g, 2)
	// After the first exhaustive source everything is a singleton: take a
	// prefix where source one has finished and source two has begun.
	s, err := st.Prefix(120)
	if err != nil {
		t.Fatal(err)
	}
	truth := g.Sum()
	observed := s.SumValues()
	// Observed is already complete (the first source saw everything).
	if math.Abs(observed-truth) > 1e-6 {
		t.Fatalf("observed %g != truth %g", observed, truth)
	}

	naive := Naive{}.EstimateSum(s)
	mc := MonteCarlo{Runs: 2, Seed: 7}.EstimateSum(s)

	naiveErr := math.Abs(naive.Estimated - truth)
	mcErr := math.Abs(mc.Estimated - truth)
	if mcErr >= naiveErr {
		t.Errorf("MC error %.0f not below naive error %.0f under streakers", mcErr, naiveErr)
	}
	// MC should stay within a modest factor of the truth.
	if mcErr > 0.5*truth {
		t.Errorf("MC estimate %g too far from truth %g", mc.Estimated, truth)
	}
}

// Section 6.1.1: with a near-uniform residual publicity the MC estimator
// tends toward N-hat ~ c (it penalizes unmatched unique items). Verify the
// conservative bias: N-hat_MC stays below the Chao92 estimate under
// streaker contamination.
func TestMonteCarloConservativeBias(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(8), sim.Config{N: 100, Lambda: 1, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Integrate(randx.New(9), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 8, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sim.InjectStreaker(base, g, 100, "streaker")
	s, err := st.Prefix(220)
	if err != nil {
		t.Fatal(err)
	}
	chao := Naive{}.EstimateSum(s).CountEstimated
	mcN := MonteCarlo{Runs: 2, Seed: 10}.EstimateN(s)
	if mcN > chao {
		t.Errorf("MC N-hat %g above Chao92 %g", mcN, chao)
	}
}

// profileOf is the simulated profile of raw per-item counts.
func profileOf(counts []int) []int {
	return sortedProfile(counts, make([]int, slices.Max(append([]int{0}, counts...))+1), nil)
}

func TestProfileDistance(t *testing.T) {
	// Identical profiles: zero distance.
	if d := profileDistance([]int{3, 2, 1}, profileOf([]int{1, 0, 2, 3})); d > 1e-6 {
		t.Errorf("identical profiles distance = %g", d)
	}
	// A longer simulated profile must cost more than a matching one.
	matching := profileDistance([]int{3, 2, 1}, []int{3, 2, 1})
	extra := profileDistance([]int{3, 2, 1}, []int{3, 2, 1, 1, 1, 1})
	if extra <= matching {
		t.Errorf("unmatched simulated items not penalized: %g <= %g", extra, matching)
	}
	// Empty inputs do not blow up.
	if d := profileDistance(nil, nil); d != 0 {
		t.Errorf("empty profiles distance = %g", d)
	}
}

// referenceProfileDistance is the materializing formulation: sort the raw
// counts descending, trim unseen items, pad both profiles to a common width
// and hand them to stats.SmoothedKLDivergence.
func referenceProfileDistance(observed, counts []int) float64 {
	sim := slices.Clone(counts)
	slices.SortFunc(sim, func(a, b int) int { return b - a })
	for len(sim) > 0 && sim[len(sim)-1] == 0 {
		sim = sim[:len(sim)-1]
	}
	width := max(len(observed), len(sim))
	if width == 0 {
		return 0
	}
	fs := make([]float64, width)
	fq := make([]float64, width)
	for i := range fs {
		if i < len(observed) {
			fs[i] = float64(observed[i])
		}
		if i < len(sim) {
			fq[i] = float64(sim[i])
		}
	}
	d, err := stats.SmoothedKLDivergence(fs, fq, 0)
	if err != nil {
		return math.Inf(1)
	}
	return d
}

// The counting-sorted, non-materializing distance is bit-identical to the
// reference on random observed/simulated profiles of every relative width.
func TestProfileDistanceMatchesSmoothedKL(t *testing.T) {
	rng := randx.New(5)
	for trial := 0; trial < 2000; trial++ {
		sources := 1 + rng.Intn(12)
		observed := make([]int, rng.Intn(60))
		for i := range observed {
			observed[i] = 1 + rng.Intn(sources)
		}
		slices.SortFunc(observed, func(a, b int) int { return b - a })
		counts := make([]int, rng.Intn(80))
		for i := range counts {
			counts[i] = rng.Intn(sources + 1)
		}
		got := profileDistance(observed, sortedProfile(counts, make([]int, sources+1), nil))
		want := referenceProfileDistance(observed, counts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: distance %v, reference %v (observed %v, counts %v)",
				trial, got, want, observed, counts)
		}
	}
}

func TestMonteCarloDefaults(t *testing.T) {
	mc := MonteCarlo{}
	if mc.runs() != DefaultMCRuns {
		t.Errorf("default runs = %d", mc.runs())
	}
	lo, hi, step := mc.lambdaGrid()
	if lo != -0.4 || hi != 0.4 || step != 0.1 {
		t.Errorf("default grid = %g..%g step %g", lo, hi, step)
	}
	if mc.nSteps() != 10 {
		t.Errorf("default N steps = %d", mc.nSteps())
	}
}
