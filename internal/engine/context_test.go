package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// Cancellation contract tests: QueryContext/ExecuteContext return
// ctx.Err() promptly when the context dies mid-query, and a canceled
// query never leaves half-built entries in the partial/result caches
// for the next query to trip over.

// blockingEstimator is a SumEstimator whose first EstimateSum call parks
// until released, signalling `started` on entry. It lets a test cancel a
// context while the estimator fan-out is provably mid-flight, then
// release the worker — deterministic, no sleeps as synchronization.
type blockingEstimator struct {
	started chan struct{} // closed (once) when EstimateSum begins
	release chan struct{} // EstimateSum returns once this closes
}

func (b *blockingEstimator) Name() string { return "blocking" }

func (b *blockingEstimator) EstimateSum(s *freqstats.Sample) core.Estimate {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.release
	return core.Estimate{Observed: s.SumValues()}
}

// contextTestTable builds a table wide enough that scans cross the
// parallel threshold (multi-shard path), with n entities over 8 sources.
func contextTestTable(t *testing.T, db *DB, n int) *Table {
	t.Helper()
	tbl, err := db.CreateTable("obs", Schema{{Name: "v", Type: TypeFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("s%d", i%8)
		attrs := map[string]sqlparse.Value{"v": sqlparse.Number(float64(i % 97))}
		if err := tbl.Insert(fmt.Sprintf("e%d", i), src, attrs); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestQueryContextPreCanceled(t *testing.T) {
	db := Open()
	contextTestTable(t, db, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT SUM(v) FROM obs"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled QueryContext: got %v, want context.Canceled", err)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db := Open()
	contextTestTable(t, db, 64)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := db.QueryContext(ctx, "SELECT SUM(v) FROM obs"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}
}

// TestSampleContextCanceledScan drives cancellation through the
// shard-scan boundary: a canceled context entering the scan path is
// observed before any shard is visited.
func TestSampleContextCanceledScan(t *testing.T) {
	db := Open()
	// Above parallelScanThreshold so forEachShard takes the parallel path.
	tbl := contextTestTable(t, db, 2048)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tbl.SampleContext(ctx, "v", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled SampleContext: got %v, want context.Canceled", err)
	}
}

// TestQueryContextCancelMidFlight cancels while an estimator is provably
// running: the query must return context.Canceled as soon as the running
// task finishes (remaining fan-out tasks are skipped), and the caches
// must stay coherent — the same query on a background context afterwards
// agrees exactly with a cold replica database that never saw the
// cancellation.
func TestQueryContextCancelMidFlight(t *testing.T) {
	blocker := &blockingEstimator{
		started: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	mkDB := func(block bool) *DB {
		ests := []core.SumEstimator{core.Naive{}, core.Frequency{}, core.Bucket{}, core.MonteCarlo{}}
		if block {
			ests = append([]core.SumEstimator{blocker}, ests...)
		}
		db := Open(WithEstimators(ests...), WithResultCache(1<<20))
		contextTestTable(t, db, 2048)
		return db
	}
	hot := mkDB(true)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := hot.QueryContext(ctx, "SELECT SUM(v) FROM obs WHERE v < 50")
		errCh <- err
	}()
	<-blocker.started // estimator fan-out is mid-flight
	cancel()
	close(blocker.release)
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled query did not return within 10s — cancellation not prompt")
	}

	// The canceled query must not have published a (partial) result: the
	// result cache serves nothing for this query yet.
	stats := hot.CacheStats()
	if stats.ResultBytes != 0 {
		t.Fatalf("canceled query left %d result-cache bytes", stats.ResultBytes)
	}

	// Re-running on a live context must agree exactly with a cold replica
	// — if the canceled scan had published a half-built partial,
	// the warm DB's answer would drift. The warm DB still carries the
	// released blocker, so the comparison runs over the cold DB's
	// estimators.
	cold := mkDB(false)
	warmRes, err := hot.Query("SELECT SUM(v) FROM obs WHERE v < 50")
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Query("SELECT SUM(v) FROM obs WHERE v < 50")
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Observed != coldRes.Observed {
		t.Fatalf("observed drifted after cancellation: warm %v cold %v", warmRes.Observed, coldRes.Observed)
	}
	if warmRes.Sample.Fingerprint() != coldRes.Sample.Fingerprint() {
		t.Fatalf("sample fingerprint drifted after cancellation: caches poisoned")
	}
	for name, ce := range coldRes.Estimates {
		we, ok := warmRes.Estimates[name]
		if !ok {
			t.Fatalf("estimator %q missing from warm result", name)
		}
		if we.Estimated != ce.Estimated {
			t.Fatalf("estimator %q drifted after cancellation: warm %v cold %v", name, we.Estimated, ce.Estimated)
		}
	}
}

// TestExecuteContextCancelGroupBy covers the per-group fan-out boundary.
func TestExecuteContextCancelGroupBy(t *testing.T) {
	db := Open()
	tbl, err := db.CreateTable("g", Schema{
		{Name: "v", Type: TypeFloat},
		{Name: "sector", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		attrs := map[string]sqlparse.Value{
			"v":      sqlparse.Number(float64(i)),
			"sector": sqlparse.StringValue(fmt.Sprintf("sec%d", i%16)),
		}
		if err := tbl.Insert(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%8), attrs); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT SUM(v) FROM g GROUP BY sector"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled GROUP BY: got %v, want context.Canceled", err)
	}
	// The same query still works on a live context.
	res, err := db.Query("SELECT SUM(v) FROM g GROUP BY sector")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 16 {
		t.Fatalf("got %d groups, want 16", len(res.Groups))
	}
}
