package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"several", []float64{1, 2, 3, 4}, 10},
		{"negatives", []float64{-1, 1, -2, 2}, 0},
		{"fractions", []float64{0.25, 0.25, 0.5}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Sum(%v) = %g, want %g", tt.in, got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"uniform", []float64{2, 4, 6}, 4},
		{"negative", []float64{-3, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %g, want %g", tt.in, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"pair", []float64{1, 3}, 2},
		{"constant", []float64{4, 4, 4, 4}, 0},
		{"spread", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 32.0 / 7.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Variance(tt.in); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("Variance(%v) = %g, want %g", tt.in, got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %g, want %g", got, math.Sqrt(32.0/7.0))
	}
}

func TestMinMax(t *testing.T) {
	if _, ok := Min(nil); ok {
		t.Error("Min(nil) reported ok")
	}
	if _, ok := Max(nil); ok {
		t.Error("Max(nil) reported ok")
	}
	xs := []float64{3, -1, 4, 1, 5}
	if m, ok := Min(xs); !ok || m != -1 {
		t.Errorf("Min = %g, %v; want -1, true", m, ok)
	}
	if m, ok := Max(xs); !ok || m != 5 {
		t.Errorf("Max = %g, %v; want 5, true", m, ok)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"odd median", []float64{3, 1, 2}, 0.5, 2},
		{"even median", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"q0 is min", []float64{9, 5, 7}, 0, 5},
		{"q1 is max", []float64{9, 5, 7}, 1, 9},
		{"clamp below", []float64{1, 2}, -3, 1},
		{"clamp above", []float64{1, 2}, 7, 2},
		{"interpolated", []float64{0, 10}, 0.25, 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Quantile(tt.in, tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Quantile(%v, %g) = %g, want %g", tt.in, tt.q, got, tt.want)
			}
		})
	}
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("Median = %g, want 5", got)
	}
}

func TestQuantileNaN(t *testing.T) {
	for _, xs := range [][]float64{{4}, {1, 2, 3}} {
		if got := Quantile(xs, math.NaN()); !math.IsNaN(got) {
			t.Errorf("Quantile(%v, NaN) = %g, want NaN", xs, got)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize(nil); got != nil {
		t.Errorf("Normalize(nil) = %v, want nil", got)
	}
	got := Normalize([]float64{1, 3})
	if !almostEqual(got[0], 0.25, 1e-12) || !almostEqual(got[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", got)
	}
	// Zero-sum inputs fall back to uniform.
	got = Normalize([]float64{0, 0, 0, 0})
	for i, v := range got {
		if !almostEqual(v, 0.25, 1e-12) {
			t.Errorf("Normalize zero-sum cell %d = %g, want 0.25", i, v)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp above = %g", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp below = %g", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp inside = %g", got)
	}
}

// Property: the mean always lies between min and max, and normalized vectors
// sum to 1.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeSumsToOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		got := Normalize(xs)
		if !almostEqual(Sum(got), 1, 1e-9) {
			t.Fatalf("trial %d: normalized sum = %g", trial, Sum(got))
		}
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			xs = append(xs, x)
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
