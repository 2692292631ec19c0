package engine

// Race soak for the streaming path: concurrent batched writers, repeated
// cached queries and CacheStats polling, with correctness assertions at
// every flush point. Run with -race (make race / CI does). Beyond
// data-race freedom this pins two invariants mid-stream:
//
//   - No stale-epoch result is ever served: the result cache is enabled
//     and the engine's selfCheck (on for the whole test binary, see
//     attribution_test.go) re-scans on every cache hit and fails the
//     query if a cached result's sample does not match a fresh scan at
//     the same epochs.
//   - Read-your-writes at flush points: after a writer's Flush returns,
//     a query must attribute to that writer's source every entity it has
//     appended so far, and the sample must satisfy sum_j n_j == n and
//     the full freqstats invariants.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparse"
)

func TestSoakStreamingWritersCachedQueries(t *testing.T) {
	db := Open(WithResultCache(8 << 20))
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "grp", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := tbl.StartIngest(IngestConfig{BatchRows: 64, Appliers: 2, FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 240
	const flushEvery = 48
	const entityPool = 120 // writers overlap on entities; attrs are consistent

	queries := []string{
		"SELECT SUM(v) FROM t",
		"SELECT SUM(v) FROM t WHERE v >= 200",
		"SELECT COUNT(*) FROM t GROUP BY grp",
	}

	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers: repeated cached queries (every hit self-verified against a
	// fresh scan by verifyCachedResult) and CacheStats polling.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(queries[i%len(queries)])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Sample != nil {
					if err := res.Sample.CheckInvariants(); err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
				}
				_ = db.CacheStats()
				_ = tbl.IngestStats()
				i++
			}
		}(r)
	}

	// Writers: each streams through its own Writer under its own source
	// name and asserts read-your-writes at every flush point.
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			src := fmt.Sprintf("writer-%d", w)
			wr := tbl.NewWriter()
			written := map[string]bool{}
			for i := 0; i < perWriter; i++ {
				e := (w*31 + i) % entityPool
				id := fmt.Sprintf("e%03d", e)
				err := wr.Append(id, src, mapAttrs3(id, float64(e)*10, fmt.Sprintf("g%d", e%3)))
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				written[id] = true
				if (i+1)%flushEvery == 0 {
					if err := wr.Flush(); err != nil {
						t.Errorf("writer %d flush: %v", w, err)
						return
					}
					// Flush point: this writer's observations must all be
					// visible and attributed, and the sample exact.
					res, err := db.Query("SELECT SUM(v) FROM t")
					if err != nil {
						t.Errorf("writer %d query: %v", w, err)
						return
					}
					if err := res.Sample.CheckInvariants(); err != nil {
						t.Errorf("writer %d flush-point invariants: %v", w, err)
						return
					}
					if got := res.Sample.SourceContributions()[src]; got != len(written) {
						t.Errorf("writer %d: read-your-writes broken: source %s has %d entities, wrote %d",
							w, src, got, len(written))
						return
					}
				}
			}
			if err := wr.Flush(); err != nil {
				t.Errorf("writer %d final flush: %v", w, err)
			}
		}(w)
	}

	writersWG.Wait()
	close(stop)
	readers.Wait()

	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Quiescent end state: every (entity, source) pair exactly once.
	s, err := tbl.Sample("v", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if s.C() != entityPool {
		t.Errorf("entities = %d, want %d", s.C(), entityPool)
	}
	contrib := s.SourceContributions()
	total := 0
	for w := 0; w < writers; w++ {
		src := fmt.Sprintf("writer-%d", w)
		distinct := map[int]bool{}
		for i := 0; i < perWriter; i++ {
			distinct[(w*31+i)%entityPool] = true
		}
		if contrib[src] != len(distinct) {
			t.Errorf("source %s contribution = %d, want %d", src, contrib[src], len(distinct))
		}
		total += len(distinct)
	}
	if s.N() != total {
		t.Errorf("sum_j n_j: |S| = %d, want %d", s.N(), total)
	}
}

func mapAttrs3(id string, v float64, grp string) map[string]sqlparse.Value {
	return map[string]sqlparse.Value{
		"name": sqlparse.StringValue(id),
		"v":    sqlparse.Number(v),
		"grp":  sqlparse.StringValue(grp),
	}
}
