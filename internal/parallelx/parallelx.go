// Package parallelx provides the one bounded parallel-for loop the
// estimators share: an atomic work counter drained by a fixed set of
// workers. Callers whose tasks derive independent state (for example
// per-cell RNG streams via randx.Derive) get results independent of the
// scheduling.
package parallelx

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(s, i) for i in 0..n-1 on up to workers goroutines (the
// calling goroutine included). Each worker calls newState once and passes
// the result to every task it runs, so tasks can reuse per-worker buffers
// without synchronization. workers < 1 or workers > n is clamped; with one
// worker the loop runs inline. fn must synchronize any state it shares
// beyond its worker's state and its own index.
func ForEach[S any](n, workers int, newState func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 || workers > n {
		workers = n
	}
	if workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		s := newState()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(s, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
