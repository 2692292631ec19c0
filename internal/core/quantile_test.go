package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/freqstats"
	"repro/internal/randx"
	"repro/internal/sim"
)

func TestQuantileValidation(t *testing.T) {
	s := toyBefore(t)
	if _, err := QuantileEstimate(Bucket{}, s, -0.1); err == nil {
		t.Error("q < 0 not reported")
	}
	if _, err := QuantileEstimate(Bucket{}, s, 1.1); err == nil {
		t.Error("q > 1 not reported")
	}
	if _, err := QuantileEstimate(Bucket{}, s, math.NaN()); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Errorf("q = NaN: err %v, want the out-of-range error", err)
	}
	res, err := QuantileEstimate(Bucket{}, freqstats.NewSample(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("empty sample valid")
	}
}

func TestQuantileCompleteSample(t *testing.T) {
	// Fully covered sample: corrected quantile == observed quantile.
	s := freqstats.NewSample()
	for i := 0; i < 20; i++ {
		id := string(rune('a' + i))
		mustAdd(t, s, id, float64(i+1)*10, "s1")
		mustAdd(t, s, id, float64(i+1)*10, "s2")
		mustAdd(t, s, id, float64(i+1)*10, "s3")
	}
	res, err := MedianEstimate(Bucket{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatal("invalid")
	}
	if math.Abs(res.Estimated-res.Observed) > 10 {
		t.Errorf("complete sample: corrected %g far from observed %g", res.Estimated, res.Observed)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	s := toyBefore(t)
	lo, err := QuantileEstimate(Bucket{}, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := QuantileEstimate(Bucket{}, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	values := s.Values()
	sort.Float64s(values)
	if lo.Estimated < values[0] || hi.Estimated > values[len(values)-1] {
		t.Errorf("endpoint quantiles [%g, %g] outside observed range [%g, %g]",
			lo.Estimated, hi.Estimated, values[0], values[len(values)-1])
	}
	if lo.Estimated > hi.Estimated {
		t.Errorf("q=0 (%g) above q=1 (%g)", lo.Estimated, hi.Estimated)
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	g, err := sim.NewGroundTruth(randx.New(1), sim.Config{N: 100, Lambda: 2, Rho: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Integrate(randx.New(2), g, sim.IntegrationConfig{
		NumSources: 20, SourceSize: 15, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.Prefix(250)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		res, err := QuantileEstimate(Bucket{}, s, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimated < prev-1e-9 {
			t.Errorf("quantile not monotone at q=%g: %g < %g", q, res.Estimated, prev)
		}
		prev = res.Estimated
	}
}

// The extension's point: under publicity-value correlation the observed
// median is biased upward (low-value entities are undersampled); the
// corrected median should be closer to the truth on average.
func TestMedianCorrectsBias(t *testing.T) {
	var obsErr, corrErr float64
	const reps = 15
	for seed := int64(0); seed < reps; seed++ {
		g, err := sim.NewGroundTruth(randx.New(seed), sim.Config{N: 100, Lambda: 4, Rho: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Integrate(randx.New(seed+100), g, sim.IntegrationConfig{
			NumSources: 20, SourceSize: 12, Interleave: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := st.Prefix(200)
		if err != nil {
			t.Fatal(err)
		}
		res, err := MedianEstimate(Bucket{}, s)
		if err != nil {
			t.Fatal(err)
		}
		truth := 505.0 // median of 10..1000
		obsErr += math.Abs(res.Observed - truth)
		corrErr += math.Abs(res.Estimated - truth)
	}
	if corrErr >= obsErr {
		t.Errorf("corrected median error %.1f not below observed %.1f", corrErr/reps, obsErr/reps)
	}
}

// TestBucketHoldsMatchesSample: the range test QuantileEstimate reads a
// bucket's values with picks, from the split sample's values, exactly the
// values of the bucket's materialized sub-sample, in the same order, for
// every strategy. The synthetic cuts and tied parity samples put entities
// on the upper edge of half-open buckets.
func TestBucketHoldsMatchesSample(t *testing.T) {
	samples := syntheticCuts(t)[:3]
	for seed := int64(0); seed < 6; seed++ {
		samples = append(samples, paritySample(t, seed, 60, uint8(seed%4), 120))
	}
	strategies := []BucketStrategy{Dynamic{}, EquiWidth{K: 5}, EquiHeight{K: 4}}
	for si, s := range samples {
		values := s.Values()
		for _, strat := range strategies {
			for _, inner := range []SumEstimator{Naive{}, Frequency{}} {
				for i, bk := range strat.Split(s, inner) {
					var got []float64
					for _, v := range values {
						if bk.holds(v) {
							got = append(got, v)
						}
					}
					if want := bk.Sample().Values(); !slices.Equal(got, want) {
						t.Fatalf("sample %d %s/%s bucket %d [%g,%g]: holds picks %d values, sub-sample has %d",
							si, strat.Name(), inner.Name(), i, bk.Lo, bk.Hi, len(got), len(want))
					}
				}
			}
		}
	}
}
