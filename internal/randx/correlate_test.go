package randx

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestCorrelateValuesValidation(t *testing.T) {
	rng := New(1)
	if _, err := CorrelateValues(rng, []float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch not reported")
	}
	if _, err := CorrelateValues(rng, []float64{1}, []float64{1}, -0.1); err == nil {
		t.Error("rho < 0 not reported")
	}
	if _, err := CorrelateValues(rng, []float64{1}, []float64{1}, 1.1); err == nil {
		t.Error("rho > 1 not reported")
	}
	out, err := CorrelateValues(rng, nil, nil, 0.5)
	if err != nil || out != nil {
		t.Errorf("empty input: got %v, %v", out, err)
	}
}

func TestCorrelateValuesPerfect(t *testing.T) {
	rng := New(2)
	weights := []float64{0.1, 0.9, 0.5} // publicity order: 1, 2, 0
	values := []float64{10, 30, 20}
	got, err := CorrelateValues(rng, weights, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Most publicized (index 1) gets largest value 30; middle (index 2)
	// gets 20; least (index 0) gets 10.
	want := []float64{10, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("value[%d] = %g, want %g (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestCorrelateValuesPreservesMultiset(t *testing.T) {
	rng := New(3)
	weights := ExponentialWeights(20, 2)
	values := make([]float64, 20)
	for i := range values {
		values[i] = float64((i + 1) * 10)
	}
	for _, rho := range []float64{0, 0.3, 0.7, 1} {
		got, err := CorrelateValues(rng, weights, values, rho)
		if err != nil {
			t.Fatal(err)
		}
		var sumIn, sumOut float64
		for i := range values {
			sumIn += values[i]
			sumOut += got[i]
		}
		if math.Abs(sumIn-sumOut) > 1e-9 {
			t.Errorf("rho=%g: value multiset changed: sum %g vs %g", rho, sumIn, sumOut)
		}
	}
}

func TestCorrelateValuesRhoOneGivesPerfectSpearman(t *testing.T) {
	rng := New(4)
	weights := ExponentialWeights(50, 3)
	values := make([]float64, 50)
	for i := range values {
		values[i] = float64(i * 7)
	}
	got, err := CorrelateValues(rng, weights, values, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SpearmanRank(weights, got)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.999 {
		t.Errorf("Spearman at rho=1 is %g, want ~1", r)
	}
}

func TestCorrelateValuesRhoZeroGivesLowSpearman(t *testing.T) {
	weights := ExponentialWeights(200, 3)
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(i)
	}
	// Average |Spearman| over several seeds should be small for rho=0.
	var total float64
	const reps = 20
	for seed := int64(0); seed < reps; seed++ {
		got, err := CorrelateValues(New(seed), weights, values, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SpearmanRank(weights, got)
		if err != nil {
			t.Fatal(err)
		}
		total += math.Abs(r)
	}
	if avg := total / reps; avg > 0.25 {
		t.Errorf("mean |Spearman| at rho=0 is %g, want near 0", avg)
	}
}

func TestCorrelateValuesMonotoneInRho(t *testing.T) {
	weights := ExponentialWeights(100, 2)
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	spearmanAt := func(rho float64) float64 {
		var total float64
		const reps = 10
		for seed := int64(0); seed < reps; seed++ {
			got, err := CorrelateValues(New(seed), weights, values, rho)
			if err != nil {
				t.Fatal(err)
			}
			r, err := SpearmanRank(weights, got)
			if err != nil {
				t.Fatal(err)
			}
			total += r
		}
		return total / reps
	}
	low := spearmanAt(0.2)
	high := spearmanAt(0.9)
	if high <= low {
		t.Errorf("Spearman not increasing in rho: rho=0.2 -> %g, rho=0.9 -> %g", low, high)
	}
	if high < 0.8 {
		t.Errorf("Spearman at rho=0.9 is only %g", high)
	}
}

func TestSpearmanRank(t *testing.T) {
	if _, err := SpearmanRank([]float64{1}, []float64{1}); err == nil {
		t.Error("n<2 not reported")
	}
	if _, err := SpearmanRank([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch not reported")
	}
	r, err := SpearmanRank([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40})
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation: r = %g, err = %v", r, err)
	}
	r, err = SpearmanRank([]float64{1, 2, 3, 4}, []float64{40, 30, 20, 10})
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anti-correlation: r = %g, err = %v", r, err)
	}
}

// SpearmanRank returns the Spearman rank correlation coefficient between xs
// and ys (ties broken by index): the oracle the CorrelateValues tests check
// the requested correlation structure with.
func SpearmanRank(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("randx: spearman length mismatch: %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return 0, fmt.Errorf("randx: spearman needs at least 2 points, got %d", n)
	}
	rx := ranks(xs)
	ry := ranks(ys)
	var d2 float64
	for i := range rx {
		d := rx[i] - ry[i]
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1)), nil
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}
