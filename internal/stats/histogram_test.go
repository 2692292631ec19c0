package stats

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEquiHeightEdges(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	edges, err := EquiHeightEdges(values, 4)
	if err != nil {
		t.Fatal(err)
	}
	if edges[0] != 1 || edges[len(edges)-1] != 8 {
		t.Errorf("edges = %v; want first 1 and last 8", edges)
	}
	if !sort.Float64sAreSorted(edges) {
		t.Errorf("edges not sorted: %v", edges)
	}
}

func TestEquiHeightEdgesDuplicateValues(t *testing.T) {
	values := []float64{5, 5, 5, 5, 5}
	edges, err := EquiHeightEdges(values, 3)
	if err != nil {
		t.Fatal(err)
	}
	// All identical values: degenerate but well-formed edges.
	for _, e := range edges {
		if e != 5 {
			t.Errorf("edges = %v, want all 5", edges)
		}
	}
}

func TestEquiHeightEdgesValidation(t *testing.T) {
	if _, err := EquiHeightEdges(nil, 2); err == nil {
		t.Error("empty values not reported")
	}
	if _, err := EquiHeightEdges([]float64{1}, 0); err == nil {
		t.Error("k=0 not reported")
	}
}

func TestEquiHeightEdgesBalancedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(200)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64() * 1000
		}
		k := 2 + rng.Intn(6)
		edges, err := EquiHeightEdges(values, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.Float64sAreSorted(edges) {
			t.Fatalf("trial %d: edges not sorted: %v", trial, edges)
		}
		if len(edges) > k+1 {
			t.Fatalf("trial %d: %d edges for k=%d", trial, len(edges), k)
		}
	}
}
