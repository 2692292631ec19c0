package core

import (
	"math"
	"runtime"
	"slices"

	"repro/internal/freqstats"
	"repro/internal/parallelx"
	"repro/internal/randx"
	"repro/internal/species"
	"repro/internal/stats"
)

// MonteCarlo is the Monte-Carlo estimator of Section 3.4. Instead of
// assuming the integrated sample approximates sampling with replacement
// (which breaks down with few sources or streakers), it simulates the
// actual per-source sampling process: for candidate parameters
// theta = (N-hat, lambda) it draws each source's n_j items without
// replacement from an exponential-publicity population of size N-hat
// (the n_j are exact for any sub-population — WHERE, GROUP BY group or
// bucket value range — because the sample carries per-entity attribution),
// compares the simulated occurrence profile against the observed one with
// KL divergence (Algorithm 2), grid-searches theta over
// [c, N-hat_Chao92] x [-0.4, 0.4], fits a quadratic surface to the
// divergences and takes its minimum (Algorithm 3).
//
// It is a parametric method (it assumes the exponential publicity shape)
// and needs larger samples to be accurate, but it is the only estimator
// robust to streakers. The KL distance penalizes unmatched unique items,
// so it favors solutions with N-hat close to c — the conservative bias
// discussed in Section 6.1.1.
//
// The grid search is embarrassingly parallel and runs on up to Workers
// goroutines. Every (grid cell, run) pair derives its own RNG stream from
// Seed via randx.Derive, so estimates are bitwise identical for a fixed
// seed regardless of the worker count or scheduling. (This per-run seeding
// scheme replaced a single sequential stream when the grid was
// parallelized; fixed-seed results are stable going forward but differ
// from the pre-parallel implementation.)
//
// Each run's stream is a randx.Stream seeded with the derived seed: Go's
// math/rand generator as a concrete type, which yields exactly the values
// of rand.New(rand.NewSource(seed)) (randx's TestStreamMatchesMathRand is
// its oracle) but seeds without math/rand's serial chain and inlines into
// the sampler's key loop. The generator reduces a seed modulo 2³¹−1, so of
// Derive's 64-bit seeds at most about 2³¹ give distinct streams.
//
// The output depends on each run's stream only through randx's sampler
// contract: one ExpFloat64 key per positive weight in index order, the k
// smallest (key, index) pairs winning. The counts do not depend on the
// winners' order, so each draw takes them in index order from
// KeySampler.SampleSet, which selects them, with no sort, among the few
// keys under a threshold that the worker's sampler learns from its
// earlier draws, so that a draw costs little more than its keys. Each
// grid worker keeps one set of weight, sampler, RNG and count buffers for
// all its cells and runs, the simulated profile is counting-sorted, and
// the KL distance takes one log per run of equal cells; none of this
// moves a bit of the estimate.
//
// The zero value is ready to use with the paper's defaults.
type MonteCarlo struct {
	// Runs is the number of simulation runs averaged per grid cell
	// (Algorithm 2's nbRuns). Values < 1 mean DefaultMCRuns.
	Runs int
	// Seed seeds the simulation RNG; estimates are deterministic for a
	// fixed seed and input.
	Seed int64
	// LambdaMin, LambdaMax and LambdaStep define the skew grid. Zero
	// values mean the paper's defaults -0.4, 0.4, 0.1.
	LambdaMin, LambdaMax, LambdaStep float64
	// NSteps is the number of steps between c and N-hat_Chao92. Values
	// < 1 mean the paper's default 10.
	NSteps int
	// Workers bounds the goroutines used for the grid search: 0 means
	// GOMAXPROCS, 1 forces the sequential path. The result is identical
	// either way.
	Workers int
}

// DefaultMCRuns is the default number of Monte-Carlo simulation runs per
// grid cell.
const DefaultMCRuns = 5

// Name implements SumEstimator.
func (MonteCarlo) Name() string { return "mc" }

func (m MonteCarlo) runs() int {
	if m.Runs < 1 {
		return DefaultMCRuns
	}
	return m.Runs
}

func (m MonteCarlo) lambdaGrid() (lo, hi, step float64) {
	lo, hi, step = m.LambdaMin, m.LambdaMax, m.LambdaStep
	if lo == 0 && hi == 0 {
		lo, hi = -0.4, 0.4
	}
	if step <= 0 {
		step = 0.1
	}
	return lo, hi, step
}

func (m MonteCarlo) nSteps() int {
	if m.NSteps < 1 {
		return 10
	}
	return m.NSteps
}

// EstimateSum implements SumEstimator. The value estimate is mean
// substitution (as in Naive) applied to the Monte-Carlo count estimate.
func (m MonteCarlo) EstimateSum(s *freqstats.Sample) Estimate {
	sp := species.Chao92(s)
	e := newEstimate(s, sp)
	if !e.Valid {
		return e
	}
	nHat := m.EstimateN(s)
	e.CountEstimated = nHat
	c := float64(s.C())
	delta := e.Observed / c * (nHat - c)
	return finishEstimate(e, delta)
}

// EstimateN runs Algorithm 3 and returns the Monte-Carlo count estimate
// N-hat_MC in [c, N-hat_Chao92].
func (m MonteCarlo) EstimateN(s *freqstats.Sample) float64 {
	c := float64(s.C())
	if c == 0 {
		return 0
	}
	chao := species.Chao92(s)
	if !chao.Valid || chao.N <= c+1e-9 {
		return c
	}
	sizes := s.SourceSizes()
	if len(sizes) == 0 {
		return c
	}
	observed := s.OccurrenceCounts()

	lamLo, lamHi, lamStep := m.lambdaGrid()
	nSteps := m.nSteps()
	nStep := (chao.N - c) / float64(nSteps)

	// Materialize the theta grid first, then simulate the cells in
	// parallel. Normalized coordinates keep the surface fit well
	// conditioned: u in [0, 1] spans [c, N-hat_Chao92], v is lambda itself.
	type cell struct {
		thetaN int
		u, lam float64
	}
	var cells []cell
	for i := 0; i <= nSteps; i++ {
		thetaN := int(math.Round(c + float64(i)*nStep))
		if thetaN < s.C() {
			thetaN = s.C()
		}
		for lam := lamLo; lam <= lamHi+1e-9; lam += lamStep {
			cells = append(cells, cell{thetaN: thetaN, u: float64(i) / float64(nSteps), lam: lam})
		}
	}
	us := make([]float64, len(cells))
	vs := make([]float64, len(cells))
	zs := make([]float64, len(cells))
	workers := m.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	parallelx.ForEach(len(cells), workers, func() *mcScratch { return new(mcScratch) }, func(sc *mcScratch, i int) {
		// Largest populations first, so a worker's buffers reach their
		// final size on its first cell.
		k := len(cells) - 1 - i
		us[k] = cells[k].u
		vs[k] = cells[k].lam
		zs[k] = m.simulateDistance(sc, k, cells[k].thetaN, cells[k].lam, sizes, observed)
	})

	surface, err := stats.FitQuadSurface(us, vs, zs)
	if err != nil {
		// Fall back to the raw grid minimum (degenerate grids only).
		best := 0
		for i := range zs {
			if zs[i] < zs[best] {
				best = i
			}
		}
		return c + us[best]*(chao.N-c)
	}
	u, _, _ := surface.MinOnGrid(0, 1, lamLo, lamHi, 200)
	return c + u*(chao.N-c)
}

// mcScratch is one grid worker's simulation state, reused by every cell
// and run the worker simulates. Workers do not share it, every buffer is
// rewritten before it is read and the RNG is re-seeded for every run, so
// reuse does not affect results.
type mcScratch struct {
	weights []float64
	sampler randx.KeySampler
	rng     randx.Stream
	counts  []int
	hist    []int
	profile []int
	idx     []int
}

// simulateDistance is Algorithm 2: the average smoothed KL divergence over
// the configured number of runs between the observed occurrence profile
// and profiles simulated with population size thetaN and skew lambda.
// Every run re-seeds the worker's Stream from (Seed, cell, run), so the
// simulation is reproducible under any parallel schedule.
func (m MonteCarlo) simulateDistance(sc *mcScratch, cellIdx int, thetaN int, lambda float64, sizes []int, observed []int) float64 {
	sc.weights = resize(sc.weights, thetaN)
	randx.FillExponentialWeights(sc.weights, lambda)
	if err := sc.sampler.Reset(sc.weights); err != nil {
		return math.Inf(1)
	}
	sc.counts = resize(sc.counts, thetaN)
	// A source names an item at most once, so no count exceeds len(sizes).
	sc.hist = resize(sc.hist, len(sizes)+1)
	var total float64
	runs := m.runs()
	for r := 0; r < runs; r++ {
		sc.rng.Seed(randx.Derive(m.Seed, int64(cellIdx), int64(r)))
		clear(sc.counts)
		for _, nj := range sizes {
			idx, err := sc.sampler.SampleSet(&sc.rng, nj, sc.idx[:0])
			if err != nil {
				return math.Inf(1)
			}
			for _, j := range idx {
				sc.counts[j]++
			}
			sc.idx = idx
		}
		sc.profile = sortedProfile(sc.counts, sc.hist, sc.profile[:0])
		total += profileDistance(observed, sc.profile)
	}
	return total / float64(runs)
}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// sortedProfile appends the nonzero counts to dst in descending order — the
// simulated occurrence profile without its unseen items. It counting-sorts
// through hist, which must have room for the largest count.
func sortedProfile(counts, hist, dst []int) []int {
	clear(hist)
	for _, c := range counts {
		hist[c]++
	}
	for v := len(hist) - 1; v > 0; v-- {
		for n := hist[v]; n > 0; n-- {
			dst = append(dst, v)
		}
	}
	return dst
}

// profileDistance indexes the observed and simulated occurrence profiles
// against each other (Algorithm 2's "indexing" step): both are sorted
// descending, padded to a common length — so the i-th most frequent
// observed entity is compared with the i-th most frequent simulated one —
// normalized, smoothed, and compared with KL divergence D(F'_S || F_Q).
//
// It computes stats.SmoothedKLDivergence(fs, fq, 0) on the padded profiles
// with the same float operations in the same order, without materializing
// them, except that a run of cells with the same (observed, simulated)
// pair takes its p and log(p/q) once: one log per run, not per cell.
// Smoothed cells are positive, so neither Normalize's uniform fallback nor
// KLDivergence's negative-entry error can apply.
func profileDistance(observed, simulated []int) float64 {
	width := max(len(observed), len(simulated))
	if width == 0 {
		return 0
	}
	var sumS, sumQ float64
	for i := 0; i < width; i++ {
		sumS += smoothedCell(observed, i)
		sumQ += smoothedCell(simulated, i)
	}
	// Both profiles descend through few distinct values, so a cell
	// mostly repeats its predecessor's pair, and with it p and the log.
	var d, p, lg float64
	prevS, prevQ := -1.0, -1.0
	for i := 0; i < width; i++ {
		if cs, cq := smoothedCell(observed, i), smoothedCell(simulated, i); cs != prevS || cq != prevQ {
			prevS, prevQ = cs, cq
			p = cs / sumS
			q := cq / sumQ
			if p != 0 && q == 0 {
				return math.Inf(1)
			}
			lg = math.Log(p / q)
		}
		if p == 0 {
			continue
		}
		d += p * lg
	}
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d
}

// smoothedCell is cell i of a zero-padded profile after the smoothing step:
// empty cells get stats.DefaultSmoothingEpsilon.
func smoothedCell(profile []int, i int) float64 {
	if i < len(profile) && profile[i] > 0 {
		return float64(profile[i])
	}
	return stats.DefaultSmoothingEpsilon
}
