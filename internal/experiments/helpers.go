package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/freqstats"
	"repro/internal/sim"
)

// defaultEstimators returns the harness's estimator set. Monte-Carlo effort
// is reduced in quick mode so test runs stay fast.
func defaultEstimators(cfg Config, seed int64) []core.SumEstimator {
	runs := 3
	if cfg.Quick {
		runs = 1
	}
	return []core.SumEstimator{
		core.Naive{},
		core.Frequency{},
		core.Bucket{},
		core.MonteCarlo{Runs: runs, Seed: seed},
	}
}

// estimatorSeries replays the stream at the given checkpoints and records,
// for every estimator, the corrected SUM estimate; an "observed" series and
// a flat "truth" series are prepended. Diverged estimates are recorded as
// NaN (a gap in the plot).
func estimatorSeries(stream *sim.Stream, truth float64, checkpoints []int, ests []core.SumEstimator) ([]Series, error) {
	xs := make([]float64, len(checkpoints))
	for i, k := range checkpoints {
		xs[i] = float64(k)
	}
	observed := Series{Name: "observed", X: xs, Y: make([]float64, len(checkpoints))}
	truthLine := Series{Name: "truth", X: xs, Y: make([]float64, len(checkpoints))}
	for i := range truthLine.Y {
		truthLine.Y[i] = truth
	}
	estSeries := make([]Series, len(ests))
	for i, e := range ests {
		estSeries[i] = Series{Name: e.Name(), X: xs, Y: make([]float64, len(checkpoints))}
	}

	idx := 0
	err := stream.Replay(checkpoints, func(k int, s *freqstats.Sample) error {
		observed.Y[idx] = s.SumValues()
		for i, e := range ests {
			est := e.EstimateSum(s)
			if !est.Valid || est.Diverged {
				estSeries[i].Y[idx] = math.NaN()
			} else {
				estSeries[i].Y[idx] = est.Estimated
			}
		}
		idx++
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := []Series{observed}
	out = append(out, estSeries...)
	out = append(out, truthLine)
	return out, nil
}

// averageSeries runs build for reps different seeds and averages the
// resulting series pointwise. All runs must produce the same series layout.
// NaN points are excluded from the average per point; a point that is NaN
// in every rep stays NaN.
func averageSeries(reps int, build func(rep int) ([]Series, error)) ([]Series, error) {
	var acc []Series
	var counts [][]int
	for rep := 0; rep < reps; rep++ {
		series, err := build(rep)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = make([]Series, len(series))
			counts = make([][]int, len(series))
			for i, s := range series {
				acc[i] = Series{Name: s.Name, X: append([]float64(nil), s.X...), Y: make([]float64, len(s.Y))}
				counts[i] = make([]int, len(s.Y))
			}
		}
		for i, s := range series {
			for j, y := range s.Y {
				if math.IsNaN(y) {
					continue
				}
				acc[i].Y[j] += y
				counts[i][j]++
			}
		}
	}
	for i := range acc {
		for j := range acc[i].Y {
			if counts[i][j] == 0 {
				acc[i].Y[j] = math.NaN()
			} else {
				acc[i].Y[j] /= float64(counts[i][j])
			}
		}
	}
	return acc, nil
}
