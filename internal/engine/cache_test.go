package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// setLimits reconfigures the bounds; zero disables (and clears) the
// respective layer.
func (c *scanCache) setLimits(maxProgs, maxPartBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxProgs = maxProgs
	c.maxPartBytes = maxPartBytes
	c.evictLocked()
}

// buildCacheTable fills a table with n entities spread over every shard;
// entity i carries v = i and is reported by 1 + i%3 sources.
func buildCacheTable(t testing.TB, n int, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(opts...)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "grp", Type: TypeString},
		{Name: "v", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("entity-%04d", i)
		attrs := map[string]sqlparse.Value{
			"grp": sqlparse.StringValue(fmt.Sprintf("g%d", i%4)),
			"v":   sqlparse.Number(float64(i)),
		}
		for s := 0; s <= i%3; s++ {
			if err := tbl.Insert(id, fmt.Sprintf("src-%d", s), attrs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, tbl
}

func mustPredicate(t testing.TB, s string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParsePredicate(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFilterProgramCacheReuse(t *testing.T) {
	_, tbl := buildCacheTable(t, 200)
	pred := mustPredicate(t, "v >= 50 AND v < 150")

	if _, err := tbl.Sample("v", pred); err != nil {
		t.Fatal(err)
	}
	after1 := tbl.CacheStats()
	if after1.ProgramMisses != 1 || after1.ProgramHits != 0 {
		t.Fatalf("first query: program hits=%d misses=%d, want 0/1", after1.ProgramHits, after1.ProgramMisses)
	}

	// A structurally identical predicate parsed separately must reuse the
	// compiled program: the cache key is the canonical rendering.
	if _, err := tbl.Sample("v", mustPredicate(t, "v >= 50 AND v < 150")); err != nil {
		t.Fatal(err)
	}
	after2 := tbl.CacheStats()
	if after2.ProgramHits != 1 || after2.ProgramMisses != 1 {
		t.Fatalf("second query: program hits=%d misses=%d, want 1/1", after2.ProgramHits, after2.ProgramMisses)
	}

	// A different predicate compiles separately.
	if _, err := tbl.Sample("v", mustPredicate(t, "v >= 60")); err != nil {
		t.Fatal(err)
	}
	after3 := tbl.CacheStats()
	if after3.ProgramMisses != 2 {
		t.Fatalf("third query: program misses=%d, want 2", after3.ProgramMisses)
	}
}

func TestScanCacheEvictionBounds(t *testing.T) {
	_, tbl := buildCacheTable(t, 2000)
	// Budget fits roughly two predicates' worth of frozen shard partials
	// (16 shards x ~125 rows of PartialRow plus entity IDs each).
	const budget = 256 << 10
	tbl.cache.setLimits(4, budget)

	for i := 0; i < 32; i++ {
		if _, err := tbl.Sample("v", mustPredicate(t, fmt.Sprintf("v >= %d", i))); err != nil {
			t.Fatal(err)
		}
		if got := tbl.CacheStats().PartialBytes; got > budget {
			t.Fatalf("partial cache grew to %d bytes, budget %d", got, budget)
		}
	}
	stats := tbl.CacheStats()
	if stats.PartialBytes == 0 {
		t.Error("partial cache stored nothing within its budget")
	}
	if stats.PartialEvictions == 0 {
		t.Error("no partial evictions despite a tiny budget")
	}

	// Disabling clears everything.
	tbl.cache.setLimits(0, 0)
	if got := tbl.CacheStats().PartialBytes; got != 0 {
		t.Fatalf("disabled cache still holds %d bytes", got)
	}
	if _, err := tbl.Sample("v", mustPredicate(t, "v >= 1")); err != nil {
		t.Fatal(err)
	}
	if got := tbl.CacheStats().PartialBytes; got != 0 {
		t.Fatalf("disabled cache stored %d bytes", got)
	}
}

// TestCachedVsColdParity asserts that warm-cache results are bitwise
// identical to a cold engine's, including the exact per-source
// attribution introduced in the attribution PR, for plain, filtered and
// grouped queries.
func TestCachedVsColdParity(t *testing.T) {
	warmDB, _ := buildCacheTable(t, 1500)
	coldDB, coldTbl := buildCacheTable(t, 1500)
	coldTbl.cache.setLimits(0, 0) // cold engine: caching off entirely

	queries := []string{
		"SELECT SUM(v) FROM t",
		"SELECT SUM(v) FROM t WHERE v >= 300 AND v < 900",
		"SELECT COUNT(*) FROM t WHERE grp = 'g1'",
		"SELECT AVG(v) FROM t WHERE v < 700 GROUP BY grp",
	}
	for _, sql := range queries {
		// Run twice against the warm DB so the second run hits every cache
		// layer, then compare against the cold DB.
		if _, err := warmDB.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		warm, err := warmDB.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cold, err := coldDB.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		assertResultsEqual(t, sql, warm, cold)
	}
	if stats := coldTbl.CacheStats(); stats.PartialBytes != 0 {
		t.Fatalf("cold table cached %d partial bytes", stats.PartialBytes)
	}
}

func assertResultsEqual(t *testing.T, sql string, a, b *Result) {
	t.Helper()
	if a.Observed != b.Observed {
		t.Errorf("%s: observed %v != %v", sql, a.Observed, b.Observed)
	}
	if !reflect.DeepEqual(a.Estimates, b.Estimates) {
		t.Errorf("%s: estimates differ:\n%v\n%v", sql, a.Estimates, b.Estimates)
	}
	if !reflect.DeepEqual(a.Warnings, b.Warnings) {
		t.Errorf("%s: warnings differ: %v vs %v", sql, a.Warnings, b.Warnings)
	}
	if (a.Sample == nil) != (b.Sample == nil) {
		t.Fatalf("%s: one result has a sample, the other does not", sql)
	}
	if a.Sample != nil {
		if a.Sample.Fingerprint() != b.Sample.Fingerprint() {
			t.Errorf("%s: sample fingerprints differ", sql)
		}
		if !reflect.DeepEqual(a.Sample.SourceContributions(), b.Sample.SourceContributions()) {
			t.Errorf("%s: per-source attribution differs: %v vs %v",
				sql, a.Sample.SourceContributions(), b.Sample.SourceContributions())
		}
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("%s: group count %d != %d", sql, len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if a.Groups[i].Key != b.Groups[i].Key {
			t.Errorf("%s: group %d key %v != %v", sql, i, a.Groups[i].Key, b.Groups[i].Key)
		}
		assertResultsEqual(t, fmt.Sprintf("%s [group %d]", sql, i), a.Groups[i].Result, b.Groups[i].Result)
	}
}

func TestResultCacheHitMissAndInvalidation(t *testing.T) {
	db, tbl := buildCacheTable(t, 1200, WithEstimators(core.Naive{}, core.Bucket{}), WithResultCache(16<<20))
	const sql = "SELECT SUM(v) FROM t WHERE v >= 100"

	first, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("repeat query did not return the cached result")
	}
	stats := db.CacheStats()
	if stats.ResultHits != 1 || stats.ResultMisses != 1 {
		t.Fatalf("result hits=%d misses=%d, want 1/1", stats.ResultHits, stats.ResultMisses)
	}
	if stats.ResultBytes <= 0 {
		t.Error("result cache reports no retained bytes")
	}

	// A GROUP BY result caches too.
	g1, err := db.Query("SELECT COUNT(*) FROM t GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := db.Query("SELECT COUNT(*) FROM t GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g1 {
		t.Error("repeat GROUP BY query did not return the cached result")
	}

	// Any mutation invalidates: the epoch vector in the key changes.
	// entity-0500 (v=500) matches the predicate, so the recomputed sample
	// must carry the extra observation.
	if err := tbl.Insert("entity-0500", "src-9", map[string]sqlparse.Value{
		"grp": sqlparse.StringValue("g0"),
		"v":   sqlparse.Number(500),
	}); err != nil {
		t.Fatal(err)
	}
	third, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Error("query after insert returned the stale cached result")
	}
	if third.Sample.N() != first.Sample.N()+1 {
		t.Errorf("post-insert n=%d, want %d", third.Sample.N(), first.Sample.N()+1)
	}
}

// TestResultCacheDropsSupersededEpochs: under write churn, re-running
// the same query must replace the dead older-epoch entry instead of
// accumulating unreachable results up to the byte budget.
func TestResultCacheDropsSupersededEpochs(t *testing.T) {
	db, tbl := buildCacheTable(t, 600, WithEstimators(core.Naive{}), WithResultCache(64<<20))
	const sql = "SELECT SUM(v) FROM t WHERE v >= 10"

	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	oneEntry := db.CacheStats().ResultBytes
	for i := 0; i < 8; i++ {
		err := tbl.Insert(fmt.Sprintf("churn-%d", i), "src-churn", map[string]sqlparse.Value{
			"grp": sqlparse.StringValue("gc"),
			"v":   sqlparse.Number(float64(100 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Only the newest entry should be retained (within slack for the
	// slightly larger sample).
	if got := db.CacheStats().ResultBytes; got > 2*oneEntry {
		t.Fatalf("churned result cache holds %d bytes, want about one entry (%d)", got, oneEntry)
	}
}

// TestResultCacheStaleStoreDoesNotDisplaceFresh covers the racing-store
// order: a query that scanned before a write may store its older-epoch
// result after the fresher one landed; the fresher entry must survive.
func TestResultCacheStaleStoreDoesNotDisplaceFresh(t *testing.T) {
	rc := newResultCache(1 << 20)
	key := resultKey{table: 1, query: "q"}
	oldKey, newKey := key, key
	oldKey.epochs[3] = 1
	newKey.epochs[3] = 2

	freshRes := &Result{Observed: 2}
	rc.store(newKey, freshRes)
	rc.store(oldKey, &Result{Observed: 1}) // late stale store must be dropped
	if got, ok := rc.lookup(newKey); !ok || got != freshRes {
		t.Fatal("stale store displaced the fresher cached result")
	}
	if _, ok := rc.lookup(oldKey); ok {
		t.Fatal("stale result was cached despite a fresher entry")
	}

	// The forward direction still replaces: a newer store supersedes.
	newerKey := key
	newerKey.epochs[3] = 5
	newest := &Result{Observed: 3}
	rc.store(newerKey, newest)
	if got, ok := rc.lookup(newerKey); !ok || got != newest {
		t.Fatal("newer store did not land")
	}
	if _, ok := rc.lookup(newKey); ok {
		t.Fatal("superseded entry still cached")
	}
}

// TestConcurrentInsertNeverServesStaleEpoch hammers a cached table with
// writers while readers repeatedly run the same filtered query (maximum
// partial-cache traffic) and a result-cached query. Run under -race. Each
// reader checks that matched observation counts never go backwards —
// inserts only add, so serving a partial or result from a stale epoch
// would show up as a shrinking sample — and a final quiesced query must
// agree exactly with a cache-free rebuild.
func TestConcurrentInsertNeverServesStaleEpoch(t *testing.T) {
	db, tbl := buildCacheTable(t, 400, WithEstimators(core.Naive{}), WithResultCache(16<<20))

	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("extra-%d-%d", w, i)
				err := tbl.Insert(id, fmt.Sprintf("src-%d", w), map[string]sqlparse.Value{
					"grp": sqlparse.StringValue("gx"),
					"v":   sqlparse.Number(float64(1000 + i)),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastN := 0
			for i := 0; i < 60; i++ {
				res, err := db.Query("SELECT SUM(v) FROM t WHERE v >= 200")
				if err != nil {
					t.Error(err)
					return
				}
				if res.Sample.N() < lastN {
					t.Errorf("matched observations went backwards: %d -> %d (stale cache served)", lastN, res.Sample.N())
					return
				}
				lastN = res.Sample.N()
				if err := res.Sample.CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	warm, err := db.Query("SELECT SUM(v) FROM t WHERE v >= 200")
	if err != nil {
		t.Fatal(err)
	}
	_, coldTbl := buildCacheTable(t, 400)
	coldTbl.cache.setLimits(0, 0)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id := fmt.Sprintf("extra-%d-%d", w, i)
			err := coldTbl.Insert(id, fmt.Sprintf("src-%d", w), map[string]sqlparse.Value{
				"grp": sqlparse.StringValue("gx"),
				"v":   sqlparse.Number(float64(1000 + i)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	cold, err := coldTbl.Sample("v", mustPredicate(t, "v >= 200"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Sample.Fingerprint() != cold.Fingerprint() {
		t.Fatal("quiesced warm sample differs from cache-free rebuild")
	}
}

// multiBucketEstimators is an estimator set with two bucket passes that
// partition the sample identically (same strategy, different inner
// estimators), fanned out in parallel over one sample.
func multiBucketEstimators() []core.SumEstimator {
	return []core.SumEstimator{
		core.Bucket{Strategy: core.EquiWidth{K: 8}, Inner: core.Naive{}},
		core.Bucket{Strategy: core.EquiWidth{K: 8}, Inner: core.Frequency{}},
	}
}

// TestMultiBucketEstimateParity: two bucket passes over one query's sample
// give bit-identical estimates to each pass run alone on a fresh database.
func TestMultiBucketEstimateParity(t *testing.T) {
	const sql = "SELECT SUM(v) FROM t WHERE v >= 100 AND v < 900"
	db, _ := buildCacheTable(t, 1200, WithEstimators(multiBucketEstimators()...))
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range multiBucketEstimators() {
		solo, _ := buildCacheTable(t, 1200, WithEstimators(est))
		soloRes, err := solo.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		name := est.Name()
		if !reflect.DeepEqual(res.Estimates[name], soloRes.Estimates[name]) {
			t.Errorf("%s: shared-sample estimate %+v != solo estimate %+v",
				name, res.Estimates[name], soloRes.Estimates[name])
		}
	}
}

// TestMultiBucketWarmColdParity: with two bucket passes, a warm result
// (served by the result cache) and a cold rebuild on a fresh database
// match bit for bit — fingerprints, per-source attribution, and every
// estimator number.
func TestMultiBucketWarmColdParity(t *testing.T) {
	for _, sql := range []string{
		"SELECT SUM(v) FROM t WHERE v >= 100 AND v < 900",
		"SELECT SUM(v) FROM t GROUP BY grp",
	} {
		db, _ := buildCacheTable(t, 1200, WithEstimators(multiBucketEstimators()...), WithResultCache(16<<20))
		cold, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("%s: warm query was not served from the result cache", sql)
		}
		rebuild, _ := buildCacheTable(t, 1200, WithEstimators(multiBucketEstimators()...))
		coldAgain, err := rebuild.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsEqual(t, sql, warm, coldAgain)
	}
}
