package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/species"
)

// TestEstimatorCostProfile is a perf canary against accidental
// re-quadratization of the estimators: on a 10k-entity sample every
// closed-form estimator (and the sweep-based dynamic bucket) must finish
// in seconds, not minutes, and one Monte-Carlo run in the sampler's
// fallback regime within half a second. The generous bounds only trip on
// complexity regressions, not machine noise.
func TestEstimatorCostProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("perf canary; run without -short")
	}
	s := freqstats.NewSample()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("e%d", i)
		for j := 0; j <= i%8; j++ {
			if err := s.Add(freqstats.Observation{EntityID: id, Value: float64(i % 1000), Source: fmt.Sprintf("s%d", j)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, est := range []SumEstimator{Naive{}, Frequency{}, Bucket{}} {
		start := time.Now()
		e := est.EstimateSum(s)
		elapsed := time.Since(start)
		t.Logf("%s: %v", est.Name(), elapsed)
		if !e.Valid {
			t.Errorf("%s: invalid estimate on healthy sample", est.Name())
		}
		if elapsed > 30*time.Second {
			t.Errorf("%s took %v on 10k entities; complexity regression?", est.Name(), elapsed)
		}
	}
	start := time.Now()
	UpperBound{}.Bound(s)
	t.Logf("bound: %v", time.Since(start))

	// Monte-Carlo where every source names at least half of N-hat: the
	// regime where the sampler's candidate sets hold most keys and its
	// hint falls back most often. Four sources name each of 1,000
	// entities with probability 0.6, so n_j ≈ 600 against N-hat ≈ 1,000.
	s = freqstats.NewSample()
	rng := randx.New(1)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 4; j++ {
			if rng.Float64() < 0.6 {
				if err := s.Add(freqstats.Observation{EntityID: fmt.Sprintf("e%d", i), Value: 1, Source: fmt.Sprintf("s%d", j)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	chao := species.Chao92(s)
	for _, nj := range s.SourceSizes() {
		if float64(nj) < chao.N/2 {
			t.Fatalf("source size %d below half of N-hat %g", nj, chao.N)
		}
	}
	start = time.Now()
	n := MonteCarlo{Seed: 1, Workers: 1}.EstimateN(s)
	elapsed := time.Since(start)
	t.Logf("mc, n_j >= N-hat/2: %v (N-hat %g, Chao92 %g, c %d)", elapsed, n, chao.N, s.C())
	if n <= float64(s.C()) || n > chao.N {
		t.Errorf("mc estimate %g outside (c, N-hat_Chao92] = (%d, %g]", n, s.C(), chao.N)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("mc took %v with n_j >= N-hat/2; complexity regression?", elapsed)
	}
}
