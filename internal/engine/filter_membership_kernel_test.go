package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparse"
)

// Parity tests for the word-at-a-time BETWEEN/IN membership kernels
// (evalFloatMembershipWords), in the style of filter_kernel_test.go: the
// word kernel, the per-row scalar path, and an independent oracle built
// on compareValues must agree bit-for-bit on every extent shape,
// selection density, NULL/undefined mix and negation — and agree on
// which error fires.

// membershipCase is one membership predicate under test: a member
// function for the kernels and the equivalent per-value test routed
// through the generic comparator for the oracle.
type membershipCase struct {
	label  string
	member func([]float64) uint64
	oracle func(v float64) bool
}

func membershipCases(t testing.TB) []membershipCase {
	t.Helper()
	cmp := func(op sqlparse.CompareOp, a, b float64) bool {
		ok, err := compareValues(op, sqlparse.Number(a), sqlparse.Number(b))
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	return []membershipCase{
		{
			label:  "between[20,70]",
			member: func(vals []float64) uint64 { return betweenFloatWord(vals, 20, 70) },
			oracle: func(v float64) bool { return cmp(sqlparse.OpGe, v, 20) && cmp(sqlparse.OpLe, v, 70) },
		},
		{
			label:  "between-empty[70,20]",
			member: func(vals []float64) uint64 { return betweenFloatWord(vals, 70, 20) },
			oracle: func(v float64) bool { return cmp(sqlparse.OpGe, v, 70) && cmp(sqlparse.OpLe, v, 20) },
		},
		{
			label:  "in(12.5,40,99.9)",
			member: func(vals []float64) uint64 { return inFloatWord(vals, []float64{12.5, 40, 99.9}) },
			oracle: func(v float64) bool {
				return cmp(sqlparse.OpEq, v, 12.5) || cmp(sqlparse.OpEq, v, 40) || cmp(sqlparse.OpEq, v, 99.9)
			},
		},
		{
			label:  "in-empty()",
			member: func(vals []float64) uint64 { return inFloatWord(vals, nil) },
			oracle: func(v float64) bool { return false },
		},
	}
}

// assertMembershipParity runs the word kernel, the scalar path, and the
// compareValues oracle over the same extent/selection and requires
// bit-identical outputs and identical errors from all three.
func assertMembershipParity(t *testing.T, label string, ext *colExtent, sel *bitmap, mc membershipCase, negate bool) {
	t.Helper()
	rows := ext.base + ext.n
	outW := newBitmap(rows)
	outS := newBitmap(rows)
	outO := newBitmap(rows)
	errW := evalFloatMembershipWords(ext, sel, outW, "v", negate, mc.member)
	errS := evalFloatMembershipScalar(ext, sel, outS, "v", negate, mc.member)
	errO := sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if !ext.defined.get(i) {
			return fmt.Errorf("sql: unknown column %q", "v")
		}
		res := false
		if ext.valid.get(i) {
			res = mc.oracle(ext.floats[i])
		}
		if negate {
			res = !res
		}
		if res {
			outO.set(row)
		}
		return nil
	})
	for _, pair := range []struct {
		name string
		err  error
	}{{"scalar", errS}, {"oracle", errO}} {
		if (errW == nil) != (pair.err == nil) {
			t.Fatalf("%s %s neg=%v: kernel err %v, %s err %v", label, mc.label, negate, errW, pair.name, pair.err)
		}
		if errW != nil && errW.Error() != pair.err.Error() {
			t.Fatalf("%s %s neg=%v: kernel err %q != %s err %q", label, mc.label, negate, errW, pair.name, pair.err)
		}
	}
	if errW != nil {
		return // output is unspecified after an error
	}
	for i := range outW.words {
		if outW.words[i] != outS.words[i] || outW.words[i] != outO.words[i] {
			t.Fatalf("%s %s neg=%v: word %d kernel=%016x scalar=%016x oracle=%016x",
				label, mc.label, negate, i, outW.words[i], outS.words[i], outO.words[i])
		}
	}
}

// TestFloatMembershipKernelParity sweeps the membership kernels across
// the same extent shapes as TestFloatKernelParity — partial word, exact
// word, word+tail, multi-word, every in-word base offset — with and without
// NULLs, at several selection densities, both negations.
func TestFloatMembershipKernelParity(t *testing.T) {
	shapes := append([]extentShape{
		{0, 1}, {0, 63}, {0, 64}, {0, 65}, {0, 100}, {0, 128},
		{0, 300}, {64, 64}, {64, 100}, {128, 63}, {192, 257},
	}, everyOffsetShapes()...)
	for si, sh := range shapes {
		for _, withNull := range []bool{false, true} {
			for density := 0; density <= 4; density++ {
				seed := uint64(si*1000 + density + 31337)
				ext := buildFloatExtent(seed, sh.base, sh.n, false, withNull)
				sel := buildSel(seed+7, sh.base+sh.n, density)
				for _, mc := range membershipCases(t) {
					for _, negate := range []bool{false, true} {
						label := fmt.Sprintf("base=%d n=%d null=%v dens=%d", sh.base, sh.n, withNull, density)
						assertMembershipParity(t, label, ext, sel, mc, negate)
					}
				}
			}
		}
	}
}

// TestFloatMembershipKernelErrorParity: selections touching undefined
// rows must produce the same error from every path.
func TestFloatMembershipKernelErrorParity(t *testing.T) {
	for _, n := range []int{64, 100, 190} {
		ext := buildFloatExtent(43, 0, n, true, true)
		sel := newBitmap(n)
		sel.setAll()
		for _, mc := range membershipCases(t) {
			for _, negate := range []bool{false, true} {
				assertMembershipParity(t, fmt.Sprintf("err n=%d", n), ext, sel, mc, negate)
			}
		}
	}
}

// TestMembershipPredicateEndToEnd proves the compiled fast path agrees
// with the row-at-a-time evaluator over a real table containing NULLs:
// for each predicate, the entity set kept by a table scan must equal the
// set sqlparse.Evaluate keeps over the materialized records — including
// the NULL-keeping semantics of NOT BETWEEN / NOT IN.
func TestMembershipPredicateEndToEnd(t *testing.T) {
	var db DB
	tbl, err := db.CreateTable("m", Schema{
		{Name: "v", Type: TypeFloat},
		{Name: "w", Type: TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		attrs := map[string]sqlparse.Value{"v": sqlparse.Number(float64(i % 97))}
		switch i % 5 {
		case 0:
			attrs["w"] = sqlparse.Null()
		case 1: // leave w undefined for some rows? undefined errors scans; keep defined
			attrs["w"] = sqlparse.Number(float64(i % 13))
		default:
			attrs["w"] = sqlparse.Number(float64(i % 41))
		}
		if err := tbl.Insert(fmt.Sprintf("e%03d", i), "s0", attrs); err != nil {
			t.Fatal(err)
		}
	}
	preds := []string{
		"v BETWEEN 10 AND 30",
		"v NOT BETWEEN 10 AND 30",
		"w BETWEEN 5 AND 20",
		"w NOT BETWEEN 5 AND 20",
		"v IN (1, 2, 3.5, 96)",
		"v NOT IN (1, 2, 96)",
		"w IN (0, 7, 11)",
		"w NOT IN (0, 7, 11)",
		"v BETWEEN 10 AND 30 AND w NOT IN (0, 7)",
	}
	recs := tbl.Records()
	for _, ps := range preds {
		pred := mustPredicate(t, ps)
		s, err := tbl.Sample("", pred)
		if err != nil {
			t.Fatalf("%s: %v", ps, err)
		}
		want := map[string]bool{}
		for _, rec := range recs {
			keep, err := sqlparse.Evaluate(pred, rec)
			if err != nil {
				t.Fatalf("%s: %s: %v", ps, rec.EntityID, err)
			}
			if keep {
				want[rec.EntityID] = true
			}
		}
		if s.C() != len(want) {
			t.Fatalf("%s: scan kept %d entities, evaluator kept %d", ps, s.C(), len(want))
		}
		for _, id := range s.Entities() {
			if !want[id] {
				t.Fatalf("%s: scan kept %q, evaluator did not", ps, id)
			}
		}
	}
}

// FuzzFloatBetweenKernelParity: arbitrary (seed, rows, lo, hi, negate)
// corners must never make the BETWEEN word kernel and the per-row
// reference disagree.
func FuzzFloatBetweenKernelParity(f *testing.F) {
	f.Add(uint64(1), uint16(64), 20.0, 70.0, false)
	f.Add(uint64(2), uint16(100), 70.0, 20.0, true)
	f.Add(uint64(3), uint16(300), 0.0, 99.9, true)
	f.Add(uint64(4), uint16(1), 50.0, 50.0, false)
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, lo, hi float64, negate bool) {
		n := int(rows%512) + 1
		bst := seed ^ 0xba5e
		base := int(splitmix64(&bst) % 256) // any in-word offset
		ext := buildFloatExtent(seed, base, n, seed%3 == 0, seed%2 == 0)
		sel := buildSel(seed^0xbeef, base+n, int(seed%5))
		member := func(vals []float64) uint64 { return betweenFloatWord(vals, lo, hi) }
		total := base + n
		outW, outS := newBitmap(total), newBitmap(total)
		errW := evalFloatMembershipWords(ext, sel, outW, "v", negate, member)
		errS := evalFloatMembershipScalar(ext, sel, outS, "v", negate, member)
		assertKernelAgree(t, fmt.Sprintf("base=%d n=%d neg=%v", base, n, negate), outW, outS, errW, errS)
	})
}

// FuzzFloatInKernelParity: same for the IN kernel, with a fuzzed
// constant list derived from the seed.
func FuzzFloatInKernelParity(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(3), 40.0, false)
	f.Add(uint64(2), uint16(100), uint8(0), 0.0, true)
	f.Add(uint64(3), uint16(300), uint8(7), 12.5, true)
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, nConsts uint8, c0 float64, negate bool) {
		n := int(rows%512) + 1
		bst := seed ^ 0xba5e
		base := int(splitmix64(&bst) % 256) // any in-word offset
		consts := make([]float64, int(nConsts)%9)
		st := seed ^ 0x5eed
		for i := range consts {
			// Mostly in-range constants so hits actually occur; c0 feeds
			// fuzzer-chosen corners (NaN, infinities) in directly.
			consts[i] = float64(splitmix64(&st)%1000) / 10
		}
		if len(consts) > 0 {
			consts[0] = c0
		}
		ext := buildFloatExtent(seed, base, n, seed%3 == 0, seed%2 == 0)
		sel := buildSel(seed^0xfeed, base+n, int(seed%5))
		member := func(vals []float64) uint64 { return inFloatWord(vals, consts) }
		total := base + n
		outW, outS := newBitmap(total), newBitmap(total)
		errW := evalFloatMembershipWords(ext, sel, outW, "v", negate, member)
		errS := evalFloatMembershipScalar(ext, sel, outS, "v", negate, member)
		assertKernelAgree(t, fmt.Sprintf("base=%d n=%d neg=%v", base, n, negate), outW, outS, errW, errS)
	})
}
