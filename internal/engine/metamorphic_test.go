package engine

// Metamorphic parity: any interleaving of streaming batches and Flush
// barriers — across staging APIs, batch sizes, applier counts, writer
// counts and observation orders — must produce a table whose query
// surface is bitwise-identical to one bulk per-row-Insert build of the
// same observations. "Query surface" is checked deep: sample
// fingerprints (content + per-source attribution), per-source sizes,
// GROUP BY partitions, and full executor results including every
// estimator's numbers (Monte-Carlo included — it is bitwise-deterministic
// for a given sample).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sqlparse"
)

// metaObs is one observation of the generated workload.
type metaObs struct {
	entity string
	source string
	attrs  map[string]sqlparse.Value
}

// metaWorkload builds a consistent observation multiset: every entity has
// fixed attributes (the model assumes cleaned input), several sources
// report overlapping entity subsets, and some (entity, source) pairs
// repeat (idempotent re-reports).
func metaWorkload(rng *rand.Rand, entities, sources, obs int) []metaObs {
	attrs := make([]map[string]sqlparse.Value, entities)
	for e := range attrs {
		id := fmt.Sprintf("e%02d", e)
		a := map[string]sqlparse.Value{
			"name": sqlparse.StringValue(id),
			"v":    sqlparse.Number(float64(e%13) * 10),
			"grp":  sqlparse.StringValue(fmt.Sprintf("g%d", e%3)),
		}
		switch e % 5 {
		case 0:
			a["extra"] = sqlparse.Null() // provided NULL
		case 1:
			delete(a, "extra") // never provided
			_ = a
		default:
			a["extra"] = sqlparse.Number(float64(e))
		}
		attrs[e] = a
	}
	out := make([]metaObs, 0, obs)
	for i := 0; i < obs; i++ {
		e := rng.Intn(entities)
		s := rng.Intn(sources)
		out = append(out, metaObs{
			entity: fmt.Sprintf("e%02d", e),
			source: fmt.Sprintf("s%02d", s),
			attrs:  attrs[e],
		})
	}
	return out
}

// buildReference replays the observations through per-row Insert.
func buildReference(t *testing.T, obs []metaObs) *DB {
	t.Helper()
	db, tbl := metaTable(t)
	for _, o := range obs {
		if err := tbl.Insert(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func metaTable(t *testing.T, opts ...Option) (*DB, *Table) {
	t.Helper()
	return metaTableStorage(t, StorageConfig{}, opts...)
}

// metaTableStorage is metaTable on an explicit storage backend (the
// cross-backend parity suite builds mem and disk variants side by side).
func metaTableStorage(t *testing.T, storage StorageConfig, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(append([]Option{WithBackend(storage)}, opts...)...)
	tbl, err := db.CreateTable("t", Schema{
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat},
		{Name: "grp", Type: TypeString},
		{Name: "extra", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, tbl
}

// streamVariant replays the observations through the batched path under
// one randomized configuration: shuffled order (optional), a random mix
// of Insert/Append/AppendRow/Writer staging per segment, random batch
// size, optional background appliers, and Flush barriers at random cut
// points.
func streamVariant(t *testing.T, rng *rand.Rand, obs []metaObs, shuffle bool) *DB {
	return streamVariantStorage(t, rng, obs, shuffle, StorageConfig{})
}

// streamVariantStorage is streamVariant on an explicit storage backend.
func streamVariantStorage(t *testing.T, rng *rand.Rand, obs []metaObs, shuffle bool, storage StorageConfig) *DB {
	t.Helper()
	db, tbl := metaTableStorage(t, storage)
	seq := obs
	if shuffle {
		seq = make([]metaObs, len(obs))
		copy(seq, obs)
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	}

	var ing *Ingester
	if rng.Intn(2) == 0 {
		cfg := IngestConfig{
			BatchRows: []int{16, 64, 256}[rng.Intn(3)],
			Appliers:  1 + rng.Intn(2),
		}
		if rng.Intn(2) == 0 {
			cfg.FlushEvery = time.Millisecond
		}
		var err error
		ing, err = tbl.StartIngest(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}

	writer := tbl.NewWriter()
	vals := make([]sqlparse.Value, 4)
	toVals := func(o metaObs) []sqlparse.Value {
		for ci, name := range []string{"name", "v", "grp", "extra"} {
			v, ok := o.attrs[name]
			if !ok {
				// AppendRow has no "missing" slot; rows with a never-provided
				// column go through the map APIs (the caller filters).
				t.Fatalf("toVals on row with missing column %s", name)
			}
			vals[ci] = v
		}
		return vals
	}
	canPositional := func(o metaObs) bool {
		return len(o.attrs) == 4
	}

	for _, o := range seq {
		mode := rng.Intn(4)
		if mode == 3 && !canPositional(o) {
			mode = rng.Intn(3)
		}
		var err error
		switch mode {
		case 0:
			err = tbl.Insert(o.entity, o.source, o.attrs)
		case 1:
			err = tbl.Append(o.entity, o.source, o.attrs)
		case 2:
			err = writer.Append(o.entity, o.source, o.attrs)
		case 3:
			err = writer.AppendRow(o.entity, o.source, toVals(o))
		}
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(97) == 0 {
			// A random barrier mid-stream; errors would mean inconsistent
			// input, which this workload never produces.
			if err := writer.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	if ing != nil {
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// querySurface compares every observable query artifact of two DBs.
func querySurface(t *testing.T, want, got *DB, label string) {
	t.Helper()
	wt, _ := want.Table("t")
	gt, _ := got.Table("t")

	if w, g := wt.NumRecords(), gt.NumRecords(); w != g {
		t.Fatalf("%s: records %d vs %d", label, g, w)
	}
	if w, g := wt.NumObservations(), gt.NumObservations(); w != g {
		t.Fatalf("%s: observations %d vs %d", label, g, w)
	}
	if w, g := wt.Sources(), gt.Sources(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: sources %v vs %v", label, g, w)
	}

	preds := []string{
		"",
		"v >= 50",
		"v BETWEEN 20 AND 90",
		"grp = 'g1'",
		"name LIKE 'e1%'",
		"grp = 'g0' OR v > 100",
		"NOT (v < 30)",
		// String-heavy shapes: every dictionary fast path (code-range,
		// code-set, negated membership with its NULL-keeping semantics,
		// prefix LIKE) must stay bitwise-identical across storage backends,
		// write interleavings, and warm-vs-cold cache states.
		"name BETWEEN 'e05' AND 'e25'",
		"name NOT BETWEEN 'e10' AND 'e30'",
		"grp IN ('g0', 'g2', 'nope')",
		"grp NOT IN ('g1')",
		"name >= 'e20' AND grp != 'g1'",
		"name NOT LIKE 'e1%'",
	}
	for _, p := range preds {
		var expr sqlparse.Expr
		if p != "" {
			expr = mustPredicate(t, p)
		}
		ws, err := wt.Sample("v", expr)
		if err != nil {
			t.Fatalf("%s: reference sample %q: %v", label, p, err)
		}
		gs, err := gt.Sample("v", expr)
		if err != nil {
			t.Fatalf("%s: variant sample %q: %v", label, p, err)
		}
		if err := gs.CheckInvariants(); err != nil {
			t.Fatalf("%s: %q: %v", label, p, err)
		}
		if w, g := ws.Fingerprint(), gs.Fingerprint(); w != g {
			t.Fatalf("%s: sample fingerprint for %q: %x vs %x", label, p, g, w)
		}
		if w, g := ws.SourceContributions(), gs.SourceContributions(); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: per-source sizes for %q: %v vs %v", label, p, g, w)
		}

		wg, err := wt.GroupedSamples("v", "grp", expr)
		if err != nil {
			t.Fatalf("%s: reference groups %q: %v", label, p, err)
		}
		gg, err := gt.GroupedSamples("v", "grp", expr)
		if err != nil {
			t.Fatalf("%s: variant groups %q: %v", label, p, err)
		}
		if len(wg) != len(gg) {
			t.Fatalf("%s: group count for %q: %d vs %d", label, p, len(gg), len(wg))
		}
		for i := range wg {
			if wg[i].Key != gg[i].Key {
				t.Fatalf("%s: group key %d for %q: %v vs %v", label, i, p, gg[i].Key, wg[i].Key)
			}
			if w, g := wg[i].Sample.Fingerprint(), gg[i].Sample.Fingerprint(); w != g {
				t.Fatalf("%s: group %v fingerprint for %q differs", label, wg[i].Key, p)
			}
		}
	}

	// Full executor parity, estimators included: identical samples must
	// yield bitwise-identical estimates (Monte-Carlo's seeding is
	// content-deterministic).
	for _, q := range []string{
		"SELECT SUM(v) FROM t",
		"SELECT COUNT(*) FROM t WHERE v >= 50",
		"SELECT AVG(v) FROM t GROUP BY grp",
		"SELECT COUNT(*) FROM t WHERE grp != 'g1' AND name BETWEEN 'e05' AND 'e25'",
		"SELECT SUM(v) FROM t WHERE name IN ('e01', 'e07', 'e19') GROUP BY grp",
	} {
		wr, err := want.Query(q)
		if err != nil {
			t.Fatalf("%s: reference query %q: %v", label, q, err)
		}
		gr, err := got.Query(q)
		if err != nil {
			t.Fatalf("%s: variant query %q: %v", label, q, err)
		}
		if wr.Observed != gr.Observed {
			t.Fatalf("%s: %q observed %g vs %g", label, q, gr.Observed, wr.Observed)
		}
		if !reflect.DeepEqual(wr.Estimates, gr.Estimates) {
			t.Fatalf("%s: %q estimates differ:\n  got  %+v\n  want %+v", label, q, gr.Estimates, wr.Estimates)
		}
		if len(wr.Groups) != len(gr.Groups) {
			t.Fatalf("%s: %q group count %d vs %d", label, q, len(gr.Groups), len(wr.Groups))
		}
		for i := range wr.Groups {
			if wr.Groups[i].Key != gr.Groups[i].Key ||
				wr.Groups[i].Result.Observed != gr.Groups[i].Result.Observed ||
				!reflect.DeepEqual(wr.Groups[i].Result.Estimates, gr.Groups[i].Result.Estimates) {
				t.Fatalf("%s: %q group %d differs", label, q, i)
			}
		}
	}
}

func TestMetamorphicStreamingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := metaWorkload(rng, 40, 8, 600)
	ref := buildReference(t, obs)

	variants := 6
	if testing.Short() {
		variants = 2
	}
	for i := 0; i < variants; i++ {
		vrng := rand.New(rand.NewSource(int64(100 + i)))
		// Same order first (pure path metamorphism), then shuffled orders
		// (insert-order metamorphism: first-write-wins attrs are identical
		// per entity, so content must not depend on arrival order).
		got := streamVariant(t, vrng, obs, i > 0)
		querySurface(t, ref, got, fmt.Sprintf("variant %d", i))
	}
}

// TestMetamorphicFlushEverywhere flushes after EVERY observation — the
// worst-case interleaving of batches and barriers (every batch has one
// row) must still be bitwise-identical.
func TestMetamorphicFlushEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	obs := metaWorkload(rng, 20, 5, 120)
	ref := buildReference(t, obs)

	db, tbl := metaTable(t)
	for _, o := range obs {
		if err := tbl.Append(o.entity, o.source, o.attrs); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	querySurface(t, ref, db, "flush-everywhere")
}
