package engine

// Incremental requery: a repeated query must rescan only the shards whose
// epoch moved since the last run, serving every clean shard from the
// partial-sample cache, and the re-merged result must be bitwise-identical
// to a cold from-scratch query at the same epochs. The hit/miss counter
// tests pin the "exactly the dirty shards" contract; the metamorphic test
// pins bitwise parity across random write interleavings.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sqlparse"
)

// partialDelta returns the partial-cache hit/miss movement between two
// CacheStats snapshots.
func partialDelta(before, after CacheStats) (hits, misses uint64) {
	return after.PartialHits - before.PartialHits, after.PartialMisses - before.PartialMisses
}

// TestIncrementalRequeryRescansOnlyDirtyShards is the acceptance check
// from the incremental pipeline: with 1 of 16 shards dirtied between two
// runs of the same query, the second run serves 15 shards from the
// partial cache and rescans exactly 1.
func TestIncrementalRequeryRescansOnlyDirtyShards(t *testing.T) {
	db := &DB{}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	type insertion struct {
		id, src string
		attrs   map[string]sqlparse.Value
	}
	var log []insertion
	insert := func(id, src string, attrs map[string]sqlparse.Value) {
		t.Helper()
		if err := tbl.Insert(id, src, attrs); err != nil {
			t.Fatal(err)
		}
		log = append(log, insertion{id, src, attrs})
	}
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("e%03d", i)
		insert(id, fmt.Sprintf("s%d", i%6), map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i % 50)),
		})
	}

	const q = "SELECT SUM(v) FROM t WHERE v >= 10"

	// Cold run: every shard is a partial-cache miss.
	base := tbl.CacheStats()
	first, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := partialDelta(base, tbl.CacheStats())
	if hits != 0 || misses != numShards {
		t.Fatalf("cold run: partial hits/misses = %d/%d, want 0/%d", hits, misses, numShards)
	}

	// Clean repeat: every shard served from cache, zero rescans.
	base = tbl.CacheStats()
	clean, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards || misses != 0 {
		t.Fatalf("clean repeat: partial hits/misses = %d/%d, want %d/0", hits, misses, numShards)
	}
	if clean.Sample.Fingerprint() != first.Sample.Fingerprint() {
		t.Fatal("clean repeat changed the sample")
	}

	// Idempotent re-insert does not move any epoch: still all hits.
	insert("e000", "s0", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("e000"),
		"v":    sqlparse.Number(0),
	})
	base = tbl.CacheStats()
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards || misses != 0 {
		t.Fatalf("after idempotent re-insert: partial hits/misses = %d/%d, want %d/0", hits, misses, numShards)
	}

	// Dirty exactly one shard (one new entity lives in one shard) and
	// requery: 15 cache serves, 1 rescan.
	insert("fresh-entity", "s0", map[string]sqlparse.Value{
		"name": sqlparse.StringValue("fresh-entity"),
		"v":    sqlparse.Number(25),
	})
	base = tbl.CacheStats()
	dirty, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = partialDelta(base, tbl.CacheStats())
	if hits != numShards-1 || misses != 1 {
		t.Fatalf("1-of-%d-dirty requery: partial hits/misses = %d/%d, want %d/1",
			numShards, hits, misses, numShards-1)
	}

	// The incremental result must equal a cold all-caches-off rebuild.
	coldDB := &DB{}
	coldTbl, err := coldDB.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	coldTbl.SetScanCacheLimits(0, 0)
	for _, ins := range log {
		if err := coldTbl.Insert(ins.id, ins.src, ins.attrs); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := coldDB.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dirty.Sample.Fingerprint(), cold.Sample.Fingerprint(); got != want {
		t.Fatalf("incremental sample fingerprint %x != cold rebuild %x", got, want)
	}
	if dirty.Observed != cold.Observed || !reflect.DeepEqual(dirty.Estimates, cold.Estimates) {
		t.Fatalf("incremental result differs from cold rebuild:\n  got  %+v\n  want %+v",
			dirty.Estimates, cold.Estimates)
	}
}

// TestIncrementalPartialCacheDisabled: with a zero partial budget the
// pipeline degrades to full rescans — no hits, no stored partials.
func TestIncrementalPartialCacheDisabled(t *testing.T) {
	db := &DB{}
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetScanCacheLimits(0, 0)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("e%02d", i)
		if err := tbl.Insert(id, "s0", map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT SUM(v) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	stats := tbl.CacheStats()
	if stats.PartialHits != 0 {
		t.Fatalf("partial hits = %d with cache disabled, want 0", stats.PartialHits)
	}
	if stats.PartialBytes != 0 {
		t.Fatalf("partial bytes = %d with cache disabled, want 0", stats.PartialBytes)
	}
}

// TestMetamorphicIncrementalRequery interleaves random per-row inserts,
// batched appends and Flush barriers with repeated queries on one live
// DB, and at every checkpoint compares the live (warm-partial,
// result-cached) query surface against a cold from-scratch rebuild of
// the same prefix with every cache disabled. Bitwise equality is checked
// deep: sample fingerprints, per-source attribution, and every estimator
// number.
func TestMetamorphicIncrementalRequery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	obs := metaWorkload(rng, 30, 6, 360)

	liveDB, liveTbl := metaTable(t, WithResultCache(8<<20))

	checkpoints := 0
	for next := 0; next < len(obs); {
		// One segment: a random run of writes through a random mix of the
		// per-row and batched paths, ending in a Flush barrier.
		segEnd := next + 30 + rng.Intn(60)
		if segEnd > len(obs) {
			segEnd = len(obs)
		}
		for ; next < segEnd; next++ {
			o := obs[next]
			var err error
			if rng.Intn(3) == 0 {
				err = liveTbl.Insert(o.entity, o.source, o.attrs)
			} else {
				err = liveTbl.Append(o.entity, o.source, o.attrs)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Keep the live caches genuinely warm mid-segment: queries here
			// mix cached partials with freshly dirtied shards. The string
			// variant keeps dictionary-kernel partials in the warm set too,
			// so the checkpoint diff covers warm string scans against a
			// cold rebuild.
			if rng.Intn(29) == 0 {
				q := "SELECT SUM(v) FROM t WHERE v >= 50"
				if rng.Intn(2) == 0 {
					q = "SELECT SUM(v) FROM t WHERE grp != 'g1' AND name BETWEEN 'e05' AND 'e25'"
				}
				if _, err := liveDB.Query(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := liveTbl.Flush(); err != nil {
			t.Fatal(err)
		}
		checkpoints++

		// Cold rebuild of the same prefix, all caches off.
		coldDB, coldTbl := metaTable(t)
		coldTbl.SetScanCacheLimits(0, 0)
		for _, o := range obs[:next] {
			if err := coldTbl.Insert(o.entity, o.source, o.attrs); err != nil {
				t.Fatal(err)
			}
		}
		querySurface(t, coldDB, liveDB, fmt.Sprintf("checkpoint %d (rows %d)", checkpoints, next))
	}
	if checkpoints < 3 {
		t.Fatalf("workload produced only %d checkpoints; widen the segments", checkpoints)
	}
}
