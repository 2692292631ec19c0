package randx

import (
	"math"
	"testing"
)

func TestNewAliasSamplerValidation(t *testing.T) {
	if _, err := NewAliasSampler(nil); err == nil {
		t.Error("empty weights not reported")
	}
	if _, err := NewAliasSampler([]float64{0, 0}); err == nil {
		t.Error("all-zero weights not reported")
	}
	if _, err := NewAliasSampler([]float64{-1, 1}); err == nil {
		t.Error("negative weight not reported")
	}
	if _, err := NewAliasSampler([]float64{math.NaN()}); err == nil {
		t.Error("NaN weight not reported")
	}
}

func TestAliasSamplerUniform(t *testing.T) {
	a, err := NewAliasSampler([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 4 {
		t.Fatalf("N = %d", a.N())
	}
	rng := New(1)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("cell %d drawn %.3f of the time, want 0.25", i, frac)
		}
	}
}

func TestAliasSamplerMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAliasSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := New(2)
	counts := make([]int, len(weights))
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		frac := float64(counts[i]) / draws
		if math.Abs(frac-want) > 0.01 {
			t.Errorf("cell %d drawn %.3f of the time, want %.3f", i, frac, want)
		}
	}
}

func TestAliasSamplerZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAliasSampler([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := New(3)
	for i := 0; i < 10000; i++ {
		idx := a.Draw(rng)
		if idx == 0 || idx == 2 {
			t.Fatalf("zero-weight index %d drawn", idx)
		}
	}
}

func TestAliasSamplerSkewed(t *testing.T) {
	// A heavily skewed exponential vector still normalizes correctly.
	weights := ExponentialWeights(50, 4)
	a, err := NewAliasSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := New(4)
	counts := make([]int, 50)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	// Head cell expected share.
	var total float64
	for _, w := range weights {
		total += w
	}
	want := weights[0] / total
	frac := float64(counts[0]) / draws
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("head drawn %.3f, want %.3f", frac, want)
	}
}

func TestAliasAgreesWithCumulativeSampler(t *testing.T) {
	// The alias method must reproduce the normalized weights as its
	// marginal distribution, the distribution a cumulative (binary-search)
	// sampler draws from exactly.
	weights := []float64{5, 1, 3, 0.5, 2}
	a, err := NewAliasSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	aCounts := make([]float64, len(weights))
	rng := New(6)
	for i := 0; i < draws; i++ {
		aCounts[a.Draw(rng)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		if diff := math.Abs(aCounts[i]/draws - w/total); diff > 0.01 {
			t.Errorf("cell %d: alias %.3f vs weight %.3f", i, aCounts[i]/draws, w/total)
		}
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	a, err := NewAliasSampler(ExponentialWeights(1000, 2))
	if err != nil {
		b.Fatal(err)
	}
	rng := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Draw(rng)
	}
}
