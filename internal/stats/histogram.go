package stats

import (
	"fmt"
	"sort"
)

// EquiHeightEdges returns bucket boundaries that divide the sorted values
// into k groups of (as close as possible) equal size. The returned slice has
// k+1 edges; the first is the minimum value and the last the maximum. Used
// by the equi-height static bucket strategy (paper Appendix B). The input is
// not modified. k must be >= 1 and values must be non-empty.
func EquiHeightEdges(values []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("stats: equi-height needs k >= 1, got %d", k)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("stats: equi-height needs values")
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	edges := make([]float64, 0, k+1)
	edges = append(edges, sorted[0])
	for i := 1; i < k; i++ {
		idx := i * len(sorted) / k
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		e := sorted[idx]
		// Edges must strictly increase for downstream range assignment;
		// skip duplicates caused by repeated values.
		if e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	if sorted[len(sorted)-1] > edges[len(edges)-1] {
		edges = append(edges, sorted[len(sorted)-1])
	} else {
		// All values identical: a single degenerate bucket.
		edges = append(edges, edges[len(edges)-1])
	}
	return edges, nil
}
