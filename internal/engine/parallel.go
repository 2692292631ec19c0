package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Query-side parallelism helpers: a bounded parallel-for used for shard
// scans, per-group execution and estimator fan-out, plus a pool of scratch
// selection bitmaps so repeated queries do not reallocate filter state.

// maxQueryWorkers bounds the extra goroutines the engine spawns for query
// work, across all concurrent and nested fan-outs.
var maxQueryWorkers = runtime.GOMAXPROCS(0)

// workerSlots is the shared pool of spare workers. parallelForCtx calls nest
// (per-group execution fans out estimators, scans fan out shards): each
// level borrows slots only if any are free and the calling goroutine
// always works too, so total engine parallelism stays ~GOMAXPROCS instead
// of multiplying per nesting level.
var workerSlots = make(chan struct{}, maxQueryWorkers)

// parallelScanThreshold is the minimum total row count before a table scan
// bothers spawning per-shard goroutines; small tables stay sequential to
// keep single-query latency flat.
const parallelScanThreshold = 1024

// parallelForCtx runs fn(0..n-1) on the calling goroutine plus however
// many shared worker slots are free, and returns the error of the smallest
// failing index (deterministic under races between failing tasks). With
// no free slots it degrades to a plain sequential loop. Every worker
// checks the context before claiming its next task, so cancellation is
// observed at task granularity — a task that already started runs to
// completion (the engine's cache-publication safety leans on tasks being
// all-or-nothing), and remaining tasks are skipped with ctx.Err() recorded
// at the first skipped index.
func parallelForCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case workerSlots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-workerSlots }()
				work()
			}()
			continue
		default:
		}
		break // no spare capacity: the caller handles the rest
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachShard visits every shard, in parallel when the table is large
// enough to pay for the goroutines. The caller must already hold the
// shard read locks (rlockAll), so the whole scan sees one point-in-time
// cut of the table. Cancellation is observed before each shard's visit —
// the shard-scan boundary of QueryContext's contract: a shard that
// started scanning finishes (its published partial is complete),
// the remaining shards are skipped.
func (t *Table) forEachShard(ctx context.Context, fn func(i int, sh *shard) error) error {
	rows := 0
	for _, sh := range t.shards {
		rows += sh.rows()
	}
	if rows < parallelScanThreshold {
		for i, sh := range t.shards {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i, sh); err != nil {
				return err
			}
		}
		return nil
	}
	return parallelForCtx(ctx, numShards, func(i int) error {
		return fn(i, t.shards[i])
	})
}

// bitmapPool recycles selection bitmaps across queries.
var bitmapPool = sync.Pool{New: func() any { return new(bitmap) }}

// borrowBitmap returns a zeroed n-bit bitmap from the pool.
func borrowBitmap(n int) *bitmap {
	b := bitmapPool.Get().(*bitmap)
	b.reset(n)
	return b
}

// releaseBitmap returns a bitmap to the pool.
func releaseBitmap(b *bitmap) { bitmapPool.Put(b) }
