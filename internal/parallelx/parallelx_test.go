package parallelx

import (
	"sync/atomic"
	"testing"
)

// Every index runs exactly once, at most one state is made per worker, and
// a state is only touched by its own worker (the unsynchronized task
// counter would trip the race detector otherwise).
func TestForEachWorkerState(t *testing.T) {
	const n = 50
	type state struct{ tasks int }
	for _, workers := range []int{1, 3, 100} {
		var seen [n]atomic.Int64
		states := make(chan *state, n)
		ForEach(n, workers, func() *state {
			s := new(state)
			states <- s
			return s
		}, func(s *state, i int) {
			s.tasks++
			seen[i].Add(1)
		})
		close(states)
		if got, want := len(states), min(workers, n); got > want {
			t.Errorf("workers=%d: %d states, want at most %d", workers, got, want)
		}
		total := 0
		for s := range states {
			total += s.tasks
		}
		if total != n {
			t.Errorf("workers=%d: states ran %d tasks, want %d", workers, total, n)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}
