package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKLDivergenceBasics(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.9, 0.1}

	if d, err := KLDivergence(p, p); err != nil || !almostEqual(d, 0, 1e-12) {
		t.Errorf("KL(p,p) = %g, %v; want 0, nil", d, err)
	}

	d, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if !almostEqual(d, want, 1e-12) {
		t.Errorf("KL(p,q) = %g, want %g", d, want)
	}
}

func TestKLDivergenceZeroHandling(t *testing.T) {
	// p_i == 0 contributes nothing.
	d, err := KLDivergence([]float64{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, math.Log(2), 1e-12) {
		t.Errorf("KL with zero p cell = %g, want ln 2", d)
	}
	// p_i > 0 with q_i == 0 is +Inf.
	d, err = KLDivergence([]float64{0.5, 0.5}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Errorf("KL with zero q cell = %g, want +Inf", d)
	}
}

func TestKLDivergenceErrors(t *testing.T) {
	if _, err := KLDivergence([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch not reported")
	}
	if _, err := KLDivergence([]float64{-0.1, 1.1}, []float64{0.5, 0.5}); err == nil {
		t.Error("negative entry not reported")
	}
}

func TestSmoothedKLDivergenceFinite(t *testing.T) {
	// Without smoothing this would be +Inf.
	p := []float64{0.5, 0.5, 0}
	q := []float64{1, 0, 0}
	d, err := SmoothedKLDivergence(p, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("smoothed KL = %g, want finite", d)
	}
	if d <= 0 {
		t.Errorf("smoothed KL = %g, want > 0 for different distributions", d)
	}
}

func TestSmoothedKLDivergenceIdentical(t *testing.T) {
	p := []float64{0.25, 0.25, 0.5}
	d, err := SmoothedKLDivergence(p, p, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(d, 0, 1e-9) {
		t.Errorf("smoothed KL(p,p) = %g, want ~0", d)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64() + 1e-9
		}
		p = Normalize(p)
		q = Normalize(q)
		d, err := KLDivergence(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 {
			t.Fatalf("trial %d: KL = %g < 0", trial, d)
		}
	}
}

func randomVector(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() + 1e-6
	}
	return xs
}
