package engine

// Live-subscription contract: DB.Subscribe re-emits the subscribed
// query's full Result after each applied ingest batch, each emission
// bitwise-identical to a fresh cold query at the same epochs; Insert, a
// one-row batch, notifies too; delivery is latest-wins; Close is idempotent
// and closes Updates. The soak variant runs a live subscription under
// four concurrent streaming writers (run with -race in CI).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparse"
)

func subTable(t *testing.T, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(opts...)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "grp", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, tbl
}

// awaitEmission reads Updates until it sees a Result whose sample
// fingerprint matches want, or fails after a timeout. Latest-wins
// delivery means intermediate emissions may be observed (or skipped) on
// the way; only convergence to the quiesced state is guaranteed.
func awaitEmission(t *testing.T, sub *Subscription, want uint64) *Result {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case res, ok := <-sub.Updates():
			if !ok {
				t.Fatal("Updates closed while awaiting emission")
			}
			if res.Sample != nil && res.Sample.Fingerprint() == want {
				return res
			}
		case <-deadline:
			t.Fatalf("no emission matching fingerprint %x within deadline (err=%v)", want, sub.Err())
		}
	}
}

// TestSubscribeEmitsAtEveryFlushPoint drives several Append+Flush
// batches through a subscribed table and, at each quiesced flush point,
// requires the subscription to converge on a Result bitwise-identical —
// sample fingerprint, per-source attribution, every estimator number —
// to a cold all-caches-off rebuild of the same rows.
func TestSubscribeEmitsAtEveryFlushPoint(t *testing.T) {
	db, tbl := subTable(t)
	const q = "SELECT SUM(v) FROM t WHERE v >= 30"

	sub, err := db.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var log []metaObs
	flushAndCheck := func(point int) {
		t.Helper()
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
		// Cold replica of everything applied so far, no caches anywhere.
		coldDB, coldTbl := metaTable(t)
		coldTbl.SetScanCacheLimits(0, 0)
		for _, o := range log {
			if err := coldTbl.Insert(o.entity, o.source, o.attrs); err != nil {
				t.Fatal(err)
			}
		}
		cold, err := coldDB.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got := awaitEmission(t, sub, cold.Sample.Fingerprint())
		if got.Observed != cold.Observed || !reflect.DeepEqual(got.Estimates, cold.Estimates) {
			t.Fatalf("flush point %d: emission differs from cold query:\n  got  %+v\n  want %+v",
				point, got.Estimates, cold.Estimates)
		}
		if !reflect.DeepEqual(got.Sample.SourceContributions(), cold.Sample.SourceContributions()) {
			t.Fatalf("flush point %d: attribution differs: %v vs %v",
				point, got.Sample.SourceContributions(), cold.Sample.SourceContributions())
		}
	}

	// Baseline emission on an empty table: the preloaded token fires
	// without any batch.
	flushAndCheck(0)

	rng := rand.New(rand.NewSource(41))
	for point := 1; point <= 5; point++ {
		for i := 0; i < 40; i++ {
			e := rng.Intn(60)
			o := metaObs{
				entity: fmt.Sprintf("e%02d", e),
				source: fmt.Sprintf("s%02d", rng.Intn(5)),
				attrs: map[string]sqlparse.Value{
					"name": sqlparse.StringValue(fmt.Sprintf("e%02d", e)),
					"v":    sqlparse.Number(float64(e%13) * 10),
					"grp":  sqlparse.StringValue(fmt.Sprintf("g%d", e%3)),
				},
			}
			if err := tbl.Append(o.entity, o.source, o.attrs); err != nil {
				t.Fatal(err)
			}
			log = append(log, o)
		}
		flushAndCheck(point)
	}
	if sub.Emitted() == 0 {
		t.Fatal("subscription never emitted")
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription error: %v", err)
	}
}

func TestSubscribeUnknownTableAndBadQuery(t *testing.T) {
	db, _ := subTable(t)
	if _, err := db.Subscribe("SELECT SUM(v) FROM nope"); err == nil {
		t.Fatal("Subscribe on unknown table did not error")
	}
	if _, err := db.Subscribe("NOT SQL AT ALL"); err == nil {
		t.Fatal("Subscribe on unparsable query did not error")
	}
}

// TestSubscribeInsertNotifies: Insert applies as a one-row batch, so it
// wakes subscriptions like any other batch, and its emission also covers
// rows staged earlier on the same shard.
func TestSubscribeInsertNotifies(t *testing.T) {
	db, tbl := subTable(t)
	sub, err := db.Subscribe("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Consume the baseline emission first.
	select {
	case <-sub.Updates():
	case <-time.After(10 * time.Second):
		t.Fatal("no baseline emission")
	}
	baseline := sub.Emitted()

	if err := tbl.Insert("e00", "s0", mapAttrs3("e00", 10, "g0")); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res := awaitEmission(t, sub, fresh.Sample.Fingerprint()); res.Observed != 1 {
		t.Fatalf("Insert emission observed %v rows, want 1", res.Observed)
	}
	if got := sub.Emitted(); got <= baseline {
		t.Fatalf("Insert left Emitted at %d (baseline %d)", got, baseline)
	}

	// A staged row of the next Insert's shard is applied by that Insert's
	// drain, so the emission after it observes both.
	staged, next := sameShardIDs(tbl, 2)
	if err := tbl.Append(staged, "s0", mapAttrs3(staged, 20, "g1")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(next, "s0", mapAttrs3(next, 30, "g2")); err != nil {
		t.Fatal(err)
	}
	if got := tbl.StagedRows(); got != 0 {
		t.Fatalf("%d rows still staged after Insert drained their shard", got)
	}
	if fresh, err = db.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if res := awaitEmission(t, sub, fresh.Sample.Fingerprint()); res.Observed != 3 {
		t.Fatalf("second Insert emission observed %v rows, want 3", res.Observed)
	}
}

// sameShardIDs returns two distinct entity IDs that hash to one shard.
func sameShardIDs(tbl *Table, from int) (string, string) {
	var ids []string
	want := -1
	for i := from; len(ids) < 2; i++ {
		id := fmt.Sprintf("e%02d", i)
		si, _ := tbl.shardIndexFor(id)
		if want < 0 {
			want = si
		}
		if si == want {
			ids = append(ids, id)
		}
	}
	return ids[0], ids[1]
}

// TestSubscribeLatestWins: a consumer that sleeps through several
// batches reads the newest state, not a backlog.
func TestSubscribeLatestWins(t *testing.T) {
	db, tbl := subTable(t)
	sub, err := db.Subscribe("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Several flush points with nobody reading Updates.
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("e%02d", i)
		if err := tbl.Append(id, "s0", mapAttrs3(id, float64(10*(i+1)), "g0")); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := db.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// The buffered emission (or the next one) must already reflect the
	// final state; intermediate results were discarded, never queued.
	res := awaitEmission(t, sub, fresh.Sample.Fingerprint())
	if !reflect.DeepEqual(res.Estimates, fresh.Estimates) {
		t.Fatalf("latest emission differs from fresh query:\n  got  %+v\n  want %+v", res.Estimates, fresh.Estimates)
	}
}

func TestSubscribeCloseIdempotent(t *testing.T) {
	db, tbl := subTable(t)
	sub, err := db.Subscribe("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// Updates must be closed (drain whatever was buffered first).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Updates():
			if !ok {
				goto closed
			}
		case <-deadline:
			t.Fatal("Updates not closed after Close")
		}
	}
closed:
	// Batches after Close must not panic or emit.
	if err := tbl.Append("e00", "s0", mapAttrs3("e00", 10, "g0")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sub.Emitted(); got > 1 {
		t.Fatalf("closed subscription kept emitting: %d", got)
	}
}

// TestSoakSubscriptionUnderStreamingWriters runs a live subscription
// under four concurrent batched writers plus ad-hoc queries (race soak —
// CI runs it with -race). Every received emission must be a coherent
// point-in-time cut: full freqstats invariants hold, and once the
// writers quiesce the subscription converges on the final table state.
func TestSoakSubscriptionUnderStreamingWriters(t *testing.T) {
	db, tbl := subTable(t, WithResultCache(8<<20))
	ing, err := tbl.StartIngest(IngestConfig{BatchRows: 32, Appliers: 2, FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	sub, err := db.Subscribe("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const writers = 4
	const perWriter = 160
	const entityPool = 80

	// Consumer: the only reader of Updates. Every emission is checked for
	// internal consistency; the newest is kept for the convergence check,
	// and arrived is signalled after each one. (A second reader would race
	// the consumer for the converged emission on the latest-wins channel.)
	var (
		mu     sync.Mutex
		latest *Result
	)
	arrived := make(chan struct{}, 1)
	consumed := make(chan int, 1)
	go func() {
		n := 0
		for res := range sub.Updates() {
			if res.Sample != nil {
				if err := res.Sample.CheckInvariants(); err != nil {
					t.Errorf("emission %d: %v", n, err)
				}
			}
			mu.Lock()
			latest = res
			mu.Unlock()
			select {
			case arrived <- struct{}{}:
			default:
			}
			n++
		}
		consumed <- n
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := fmt.Sprintf("writer-%d", w)
			wr := tbl.NewWriter()
			for i := 0; i < perWriter; i++ {
				e := (w*37 + i) % entityPool
				id := fmt.Sprintf("e%03d", e)
				if err := wr.Append(id, src, mapAttrs3(id, float64(e)*10, fmt.Sprintf("g%d", e%3))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if (i+1)%40 == 0 {
					if err := wr.Flush(); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
			if err := wr.Flush(); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Quiesced: the subscription must converge on the final state.
	fresh, err := db.Query("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Sample.Fingerprint()
	deadline := time.After(10 * time.Second)
	var res *Result
	for {
		mu.Lock()
		if latest != nil && latest.Sample != nil && latest.Sample.Fingerprint() == want {
			res = latest
		}
		mu.Unlock()
		if res != nil {
			break
		}
		select {
		case <-arrived:
		case <-deadline:
			t.Fatalf("no emission matching fingerprint %x within deadline (err=%v)", want, sub.Err())
		}
	}
	if !reflect.DeepEqual(res.Estimates, fresh.Estimates) {
		t.Fatalf("converged emission differs from fresh query:\n  got  %+v\n  want %+v", res.Estimates, fresh.Estimates)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if n := <-consumed; n == 0 {
		t.Fatal("consumer saw no emissions")
	}
}
