package engine

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// Per-row reference walks. The engine scans every extent, at any base,
// with the word kernels (filter.go, filter_string.go, gatherFloats); these
// walks visit the selected rows one at a time through plain bit tests and
// are the oracles the kernel parity tests compare the kernels against.

// forEachRange is forEach restricted to set bits in [lo, hi), stopping at
// the first error. Partial ranges mask the boundary words and sweep whole
// words in between.
func (b *bitmap) forEachRange(lo, hi int, fn func(i int) error) error {
	if lo <= 0 && hi >= b.n {
		return b.forEach(fn)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return nil
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		w := b.words[wi]
		base := wi << 6
		if base < lo {
			w &^= (uint64(1) << (uint(lo) & 63)) - 1
		}
		if base+64 > hi {
			if tail := uint(hi) & 63; tail != 0 {
				w &= (uint64(1) << tail) - 1
			}
		}
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			if err := fn(i); err != nil {
				return err
			}
			w &= w - 1
		}
	}
	return nil
}

// evalScalar is the per-row oracle of boolColNode.evalWords.
func (n *boolColNode) evalScalar(ext *colExtent, sel, out *bitmap) error {
	return sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if !ext.defined.get(i) {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, n.name)
		}
		if !n.isBool || !ext.valid.get(i) {
			return fmt.Errorf("sql: column %q is not boolean", n.name)
		}
		if ext.boolAt(i) {
			out.set(row)
		}
		return nil
	})
}

// evalFloatCmpScalar is the per-row oracle of evalFloatCmpWords. op is
// already flip-normalized.
func evalFloatCmpScalar(ext *colExtent, sel, out *bitmap, colName string, op sqlparse.CompareOp, c float64) error {
	vals := ext.floats
	return sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if !ext.defined.get(i) {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, colName)
		}
		if !ext.valid.get(i) {
			return nil // NULL never compares true
		}
		v := vals[i]
		var keep bool
		switch op {
		case sqlparse.OpEq:
			keep = v == c
		case sqlparse.OpNe:
			keep = v != c
		case sqlparse.OpLt:
			keep = v < c
		case sqlparse.OpLe:
			keep = v <= c
		case sqlparse.OpGt:
			keep = v > c
		case sqlparse.OpGe:
			keep = v >= c
		default:
			return fmt.Errorf("sql: unknown operator %q", op)
		}
		if keep {
			out.set(row)
		}
		return nil
	})
}

// evalFloatMembershipScalar is the per-row oracle of
// evalFloatMembershipWords.
func evalFloatMembershipScalar(ext *colExtent, sel, out *bitmap, colName string, negate bool, member func([]float64) uint64) error {
	vals := ext.floats
	return sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if !ext.defined.get(i) {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, colName)
		}
		in := false
		if ext.valid.get(i) {
			in = member(vals[i:i+1])&1 != 0
		}
		if negate {
			in = !in
		}
		if in {
			out.set(row)
		}
		return nil
	})
}

// evalStrScalar is the per-row oracle of the string word kernels. match
// reports the un-negated predicate outcome for a non-NULL string;
// nullKeep selects the membership family's NULL-keeping negation.
func evalStrScalar(ext *colExtent, sel, out *bitmap, colName string, negate, nullKeep bool, match func(s string) bool) error {
	return sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if !ext.defined.get(i) {
			return fmt.Errorf("sql: %w %q", ErrUnknownColumn, colName)
		}
		if !ext.valid.get(i) {
			if negate && nullKeep {
				out.set(row)
			}
			return nil
		}
		m := match(ext.str(i))
		if negate {
			m = !m
		}
		if m {
			out.set(row)
		}
		return nil
	})
}

// cmpStrMatch is the string-space oracle of cmpRankBounds.
func cmpStrMatch(op sqlparse.CompareOp, s, c string) bool {
	cmp := strings.Compare(s, c)
	switch op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	default: // OpGe
		return cmp >= 0
	}
}

// gatherFloatsScalar is the per-row oracle of gatherFloats.
func gatherFloatsScalar(sel *bitmap, ext *colExtent, keep func(row int, value float64)) {
	_ = sel.forEachRange(ext.base, ext.base+ext.n, func(row int) error {
		i := row - ext.base
		if ext.defined.get(i) && ext.valid.get(i) {
			keep(row, ext.floats[i])
		}
		return nil
	})
}

// extentShape is one (base, n) extent placement for the parity sweeps.
type extentShape struct{ base, n int }

// everyOffsetShapes places extents at base 64k+s for every in-word
// offset s (k cycling through 0..2), each with lengths that end inside,
// on, and just past a word edge — the placements a disk shard's later
// segments and live tail take under ingest.
func everyOffsetShapes() []extentShape {
	var shapes []extentShape
	for s := 0; s < 64; s++ {
		for _, n := range []int{1, 63, 64, 65, 130} {
			shapes = append(shapes, extentShape{base: 64*(s%3) + s, n: n})
		}
	}
	return shapes
}

// assertKernelAgree requires a kernel and its oracle to agree on the
// error and, when there is none, on every output word.
func assertKernelAgree(t *testing.T, label string, outW, outS *bitmap, errW, errS error) {
	t.Helper()
	if (errW == nil) != (errS == nil) {
		t.Fatalf("%s: kernel err %v, scalar err %v", label, errW, errS)
	}
	if errW != nil {
		if errW.Error() != errS.Error() {
			t.Fatalf("%s: kernel err %q != scalar err %q", label, errW, errS)
		}
		return // output is unspecified after an error
	}
	for i := range outS.words {
		if outW.words[i] != outS.words[i] {
			t.Fatalf("%s: word %d kernel=%016x scalar=%016x", label, i, outW.words[i], outS.words[i])
		}
	}
}

// TestGatherFloatsParity: the gather kernel must hand keep exactly the
// (row, value) pairs the per-row walk does, in the same order, at every
// base offset — including all-selected, all-valid extents, whose interior
// words take the dense slab-copy path.
func TestGatherFloatsParity(t *testing.T) {
	type kept struct {
		row int
		v   float64
	}
	for si, sh := range everyOffsetShapes() {
		for _, holes := range []bool{false, true} {
			for density := 1; density <= 4; density++ {
				seed := uint64(si*10 + density)
				ext := buildFloatExtent(seed, sh.base, sh.n, holes, holes)
				sel := buildSel(seed+3, sh.base+sh.n, density)
				var got, want []kept
				gatherFloats(sel, ext, func(row int, v float64) { got = append(got, kept{row, v}) })
				gatherFloatsScalar(sel, ext, func(row int, v float64) { want = append(want, kept{row, v}) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("base=%d n=%d holes=%v dens=%d: kernel kept %v, walk kept %v",
						sh.base, sh.n, holes, density, got, want)
				}
			}
		}
	}
}

// TestStringKernelBaseParity runs the string word kernels on live and
// segment extents at every base offset against evalStrScalar: the
// compare family (all six operators, present/absent/extreme literals),
// BETWEEN and IN with their NULL-keeping negations, and prefix LIKE.
func TestStringKernelBaseParity(t *testing.T) {
	for si, sh := range everyOffsetShapes() {
		seed := uint64(si*7 + 5)
		cells := buildStringCells(seed, sh.n, 7, si%4 == 0, si%2 == 0)
		live := liveStringExtent(cells, sh.base, newStringDict())
		sel := buildSel(seed+1, sh.base+sh.n, 1+si%4)
		for rep, ext := range []colExtent{live, segStringExtent(live)} {
			rank, sortedVals := ext.dictOrder()
			label := fmt.Sprintf("base=%d n=%d rep=%d", sh.base, sh.n, rep)
			run := func(what string, kernel func(out *bitmap) error, negate, nullKeep bool, match func(string) bool) {
				t.Helper()
				outW, outS := newBitmap(sel.n), newBitmap(sel.n)
				errW := kernel(outW)
				errS := evalStrScalar(&ext, sel, outS, "s", negate, nullKeep, match)
				assertKernelAgree(t, label+" "+what, outW, outS, errW, errS)
			}
			for _, lit := range []string{"w-003", "w-099", "", "zzz"} {
				for _, op := range kernelOps {
					lo, hi, neg := cmpRankBounds(op, sortedVals, lit)
					run(fmt.Sprintf("%v %q", op, lit),
						func(out *bitmap) error { return evalCodeCmpWords(&ext, sel, out, "s", rank, lo, hi, neg) },
						false, false, func(s string) bool { return cmpStrMatch(op, s, lit) })
				}
				plo, phi := dictPrefixBounds(sortedVals, lit)
				for _, negate := range []bool{false, true} {
					run(fmt.Sprintf("LIKE %q%% neg=%v", lit, negate),
						func(out *bitmap) error { return evalCodeCmpWords(&ext, sel, out, "s", rank, plo, phi, negate) },
						negate, false, func(s string) bool { return strings.HasPrefix(s, lit) })
					blo, bhi := dictLowerBound(sortedVals, "w-001"), dictUpperBound(sortedVals, lit)
					run(fmt.Sprintf("BETWEEN 'w-001' AND %q neg=%v", lit, negate),
						func(out *bitmap) error {
							return evalCodeMembershipWords(&ext, sel, out, "s", negate,
								func(codes []uint32) uint64 { return codeRangeWord(codes, rank, blo, bhi) })
						},
						negate, true, func(s string) bool { return s >= "w-001" && s <= lit })
					set := make([]uint64, len(sortedVals)/64+1)
					if r := dictLowerBound(sortedVals, lit); int(r) < len(sortedVals) && sortedVals[r] == lit {
						set[r>>6] |= 1 << (r & 63)
					}
					run(fmt.Sprintf("IN (%q) neg=%v", lit, negate),
						func(out *bitmap) error {
							return evalCodeMembershipWords(&ext, sel, out, "s", negate,
								func(codes []uint32) uint64 { return codeSetWord(codes, rank, set) })
						},
						negate, true, func(s string) bool { return s == lit })
				}
			}
		}
	}
}
