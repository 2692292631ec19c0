package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("singular system not reported")
	}
}

func TestSolveLinearValidation(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system not reported")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square system not reported")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("rhs mismatch not reported")
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{4, 1}, {1, 3}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 4 || a[1][0] != 1 || b[0] != 1 {
		t.Error("SolveLinear mutated its inputs")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonally dominant => nonsingular
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := range want {
				b[i] += a[i][j] * want[j]
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-6) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestFitQuadSurfaceExactRecovery(t *testing.T) {
	truth := QuadSurface{C0: 2, Cu: -1, Cv: 0.5, Cuu: 3, Cvv: 1.5, Cuv: -0.25}
	var us, vs, zs []float64
	for i := -2; i <= 2; i++ {
		for j := -2; j <= 2; j++ {
			u, v := float64(i), float64(j)
			us = append(us, u)
			vs = append(vs, v)
			zs = append(zs, truth.Eval(u, v))
		}
	}
	got, err := FitQuadSurface(us, vs, zs)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"C0", got.C0, truth.C0},
		{"Cu", got.Cu, truth.Cu},
		{"Cv", got.Cv, truth.Cv},
		{"Cuu", got.Cuu, truth.Cuu},
		{"Cvv", got.Cvv, truth.Cvv},
		{"Cuv", got.Cuv, truth.Cuv},
	}
	for _, c := range checks {
		if !almostEqual(c.got, c.want, 1e-7) {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestFitQuadSurfaceNoisyMinimum(t *testing.T) {
	// A convex bowl with minimum at (1, -0.2): the fitted surface's grid
	// minimum should land near it even with noise.
	rng := rand.New(rand.NewSource(7))
	truth := func(u, v float64) float64 {
		return 4 + (u-1)*(u-1) + 2*(v+0.2)*(v+0.2)
	}
	var us, vs, zs []float64
	for i := 0; i <= 10; i++ {
		for j := 0; j <= 8; j++ {
			u := float64(i)/10*4 - 1 // [-1, 3]
			v := float64(j)/8 - 0.5  // [-0.5, 0.5]
			us = append(us, u)
			vs = append(vs, v)
			zs = append(zs, truth(u, v)+rng.NormFloat64()*0.01)
		}
	}
	s, err := FitQuadSurface(us, vs, zs)
	if err != nil {
		t.Fatal(err)
	}
	u, v, _ := s.MinOnGrid(-1, 3, -0.5, 0.5, 200)
	if math.Abs(u-1) > 0.1 {
		t.Errorf("min u = %g, want ~1", u)
	}
	if math.Abs(v+0.2) > 0.1 {
		t.Errorf("min v = %g, want ~-0.2", v)
	}
}

func TestMinOnGridStaysInBox(t *testing.T) {
	// A surface opening downward: the grid minimum must be at a box corner,
	// never outside.
	s := QuadSurface{Cuu: -1, Cvv: -1}
	u, v, _ := s.MinOnGrid(0, 2, -1, 1, 10)
	if u < 0 || u > 2 || v < -1 || v > 1 {
		t.Errorf("grid min (%g, %g) outside the box", u, v)
	}
	if !(u == 0 || u == 2) || !(v == -1 || v == 1) {
		t.Errorf("downward surface min (%g, %g) should be at a corner", u, v)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// y = 3 + 2x with noise; slope/intercept recovered approximately.
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		xi := rng.Float64() * 10
		x = append(x, []float64{1, xi})
		y = append(y, 3+2*xi+rng.NormFloat64()*0.1)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 0.1 || math.Abs(beta[1]-2) > 0.05 {
		t.Errorf("beta = %v, want ~[3 2]", beta)
	}
}
