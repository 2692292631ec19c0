package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparse"
)

// String kernel parity: the same logical string column is materialized in
// every representation the scan paths serve — live dictionary extent
// (rank-lookaside word kernel), v2 segment extent (sorted dictionary,
// identity rank), v1 segment column (offset+blob, transcoded the way
// parseSegment transcodes it), and columns split into several extents at
// non-word boundaries (live pieces sharing one dictionary, or sealed
// pieces ahead of a live tail, as on a disk shard) — and one compiled
// predicate must produce bit-identical selections and identical errors on
// all of them, and agree with the per-row sqlparse.Evaluate oracle.

// strCell is one logical string cell.
type strCell struct {
	s        string
	def, val bool
}

// buildStringCells fabricates n cells over a card-sized value pool with
// occasional empty strings, and undefined/NULL rows at the usual 1/16th
// densities when enabled.
func buildStringCells(seed uint64, n, card int, withUndef, withNull bool) []strCell {
	st := seed
	cells := make([]strCell, n)
	for i := range cells {
		r := splitmix64(&st)
		s := fmt.Sprintf("w-%03d", r%uint64(card))
		if r%7 == 0 {
			s = "" // the empty string is a legal cell value, distinct from NULL
		}
		def := !(withUndef && r%16 == 0)
		val := def && !(withNull && r%16 == 1)
		cells[i] = strCell{s: s, def: def, val: val}
	}
	return cells
}

func strCellBits(cells []strCell) (defined, valid bitsView) {
	nw := (len(cells) + 63) / 64
	defined = bitsView{words: make([]uint64, nw)}
	valid = bitsView{words: make([]uint64, nw)}
	for i, c := range cells {
		if c.def {
			defined.words[i>>6] |= 1 << (uint(i) & 63)
		}
		if c.val {
			valid.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return defined, valid
}

// liveStringExtent interns the cells into dict in row order — live code
// order is appearance order, so the kernel must go through the rank
// lookaside.
func liveStringExtent(cells []strCell, base int, dict *stringDict) colExtent {
	defined, valid := strCellBits(cells)
	ext := colExtent{base: base, n: len(cells), codes: make([]uint32, len(cells)),
		defined: defined, valid: valid}
	for i, c := range cells {
		code := dictEmptyCode
		if c.val {
			code = dict.intern(c.s)
		}
		ext.codes[i] = code
	}
	ext.dict = dict.valsView()
	ext.sdict = dict
	return ext
}

// segStringExtent rewrites a live extent the way seal does: codes
// remapped into a sorted per-segment dictionary, rank = identity
// (sdict nil).
func segStringExtent(live colExtent) colExtent {
	sd := planSegDict(live.codes, live.dict)
	codes := make([]uint32, len(live.codes))
	for i, c := range live.codes {
		codes[i] = sd.remap[c]
	}
	return colExtent{base: live.base, n: live.n, codes: codes, dict: sd.sortedVals,
		defined: live.defined, valid: live.valid}
}

// v1StringExtent writes the cells in the v1 offset+blob form and reads
// them back through transcodeV1Strings, as parseSegment does for a v1
// file.
func v1StringExtent(t testing.TB, cells []strCell, base int) colExtent {
	t.Helper()
	defined, valid := strCellBits(cells)
	off := make([]uint32, len(cells)+1)
	var blob []byte
	for i, c := range cells {
		if c.val {
			blob = append(blob, c.s...)
		}
		off[i+1] = uint32(len(blob))
	}
	codes, dict, err := transcodeV1Strings(off, blob)
	if err != nil {
		t.Fatal(err)
	}
	return colExtent{base: base, n: len(cells), codes: codes, dict: dict,
		defined: defined, valid: valid}
}

// strView wraps extents as a one-string-column storeView.
func strView(rows int, exts ...colExtent) *storeView {
	return &storeView{rows: rows, cols: []colView{{typ: TypeString, exts: exts}}}
}

// splitStringView cuts the cells at the given rows into consecutive
// extents sharing one shard dictionary. With sealed, every piece but the
// last is rewritten as a segment extent (sorted dictionary, identity
// rank): the shape of a disk shard, segments at arbitrary bases followed
// by the live tail.
func splitStringView(cells []strCell, cuts []int, sealed bool) *storeView {
	d := newStringDict()
	var exts []colExtent
	lo := 0
	for _, hi := range append(cuts, len(cells)) {
		exts = append(exts, liveStringExtent(cells[lo:hi], lo, d))
		lo = hi
	}
	for i := range exts {
		// Re-snapshot the dict view: later pieces' interning may have grown
		// it, and a wider snapshot is still exact for this piece.
		exts[i].dict = d.valsView()
		if sealed && i < len(exts)-1 {
			exts[i] = segStringExtent(exts[i])
		}
	}
	return strView(len(cells), exts...)
}

// strParityViewNames lists strParityViews' representations in the order
// assertStringPredParity compares them.
var strParityViewNames = []string{"live", "seg", "v1", "split-37", "split-100", "disk-37", "disk-70-129"}

// strParityViews builds every representation of the same cells. The
// split and disk views cut the column at non-multiples of 64, so word
// kernels run on extents starting mid-word; a view is only built when the
// column is longer than its last cut.
func strParityViews(t testing.TB, cells []strCell) map[string]*storeView {
	n := len(cells)
	live := liveStringExtent(cells, 0, newStringDict())
	views := map[string]*storeView{
		"live": strView(n, live),
		"seg":  strView(n, segStringExtent(live)),
		"v1":   strView(n, v1StringExtent(t, cells, 0)),
	}
	for _, sp := range []struct {
		name   string
		cuts   []int
		sealed bool
	}{
		{"split-37", []int{37}, false},
		{"split-100", []int{100}, false},
		{"disk-37", []int{37}, true},
		{"disk-70-129", []int{70, 129}, true},
	} {
		if n > sp.cuts[len(sp.cuts)-1] {
			views[sp.name] = splitStringView(cells, sp.cuts, sp.sealed)
		}
	}
	return views
}

// assertStringPredParity compiles sql against {s STRING} and requires
// every representation to produce the same bits and the same error; when
// evaluation succeeds, the result must also match sqlparse.Evaluate row
// by row.
func assertStringPredParity(t *testing.T, label, sql string, cells []strCell, sel *bitmap) {
	t.Helper()
	schema := Schema{{Name: "s", Type: TypeString}}
	expr, err := sqlparse.ParsePredicate(sql)
	if err != nil {
		t.Fatalf("%s: parse %q: %v", label, sql, err)
	}
	prog, err := compileFilter(schema, map[string]int{"s": 0}, expr)
	if err != nil {
		t.Fatalf("%s: compile %q: %v", label, sql, err)
	}
	n := len(cells)
	var refBits *bitmap
	var refErr error
	refName := ""
	views := strParityViews(t, cells)
	for _, name := range strParityViewNames {
		v, ok := views[name]
		if !ok {
			continue
		}
		out := newBitmap(n)
		err := prog.eval(v, sel, out)
		if refName == "" {
			refBits, refErr, refName = out, err, name
			continue
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s %q: %s err %v, %s err %v", label, sql, name, err, refName, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("%s %q: %s err %q != %s err %q", label, sql, name, err, refName, refErr)
			}
			continue
		}
		for i := range out.words {
			if out.words[i] != refBits.words[i] {
				t.Fatalf("%s %q: word %d %s=%016x %s=%016x", label, sql, i, name, out.words[i], refName, refBits.words[i])
			}
		}
	}
	if refErr != nil {
		return // all representations agreed on the error; bits are unspecified
	}
	// Per-row oracle. Selected rows are all defined here (an undefined
	// selected row would have errored above), so Evaluate never sees a
	// missing column.
	if oerr := sel.forEachRange(0, n, func(row int) error {
		val := sqlparse.Null()
		if cells[row].val {
			val = sqlparse.StringValue(cells[row].s)
		}
		want, err := sqlparse.Evaluate(expr, sqlparse.MapRow{"s": val})
		if err != nil {
			return fmt.Errorf("row %d: %v", row, err)
		}
		if got := refBits.get(row); got != want {
			return fmt.Errorf("row %d (%q valid=%v): kernel=%v oracle=%v",
				row, cells[row].s, cells[row].val, got, want)
		}
		return nil
	}); oerr != nil {
		t.Fatalf("%s %q: oracle mismatch: %v", label, sql, oerr)
	}
}

// stringParityPredicates covers every string fast path — all six compare
// operators (both operand orders), BETWEEN/IN and their NULL-keeping
// negations, exact/prefix/generic LIKE — with literals that are present,
// absent, below-all, above-all, and empty.
func stringParityPredicates(lit string) []string {
	return []string{
		fmt.Sprintf("s = '%s'", lit),
		fmt.Sprintf("s != '%s'", lit),
		fmt.Sprintf("s < '%s'", lit),
		fmt.Sprintf("s <= '%s'", lit),
		fmt.Sprintf("s > '%s'", lit),
		fmt.Sprintf("s >= '%s'", lit),
		fmt.Sprintf("'%s' < s", lit),
		fmt.Sprintf("'%s' >= s", lit),
		"s = ''",
		"s > ''",
		fmt.Sprintf("s BETWEEN 'w-001' AND '%s'", lit),
		fmt.Sprintf("s NOT BETWEEN 'w-001' AND '%s'", lit),
		fmt.Sprintf("s BETWEEN '%s' AND 'a'", lit), // hi < lo: empty range
		fmt.Sprintf("s IN ('%s', 'w-002', 'zz-absent')", lit),
		fmt.Sprintf("s NOT IN ('%s', '', 'w-000')", lit),
		fmt.Sprintf("s LIKE '%s'", lit),     // exact: rank interval
		fmt.Sprintf("s NOT LIKE '%s'", lit), // exact, negated
		"s LIKE 'w-0%'",                     // prefix: rank interval
		"s NOT LIKE 'w-0%'",
		"s LIKE '%1'",   // generic: per-row LikeMatch on every path
		"s LIKE 'w_0%'", // generic (_ wildcard disables the fast plan)
	}
}

// TestStringKernelParity sweeps representations x shapes x NULL/undef
// densities x the full predicate set.
func TestStringKernelParity(t *testing.T) {
	for si, n := range []int{1, 63, 64, 65, 130, 300} {
		for _, withUndef := range []bool{false, true} {
			for _, withNull := range []bool{false, true} {
				seed := uint64(si*100 + 17)
				cells := buildStringCells(seed, n, 7, withUndef, withNull)
				for density := 0; density <= 4; density++ {
					sel := buildSel(seed+uint64(density), n, density)
					label := fmt.Sprintf("n=%d undef=%v null=%v dens=%d", n, withUndef, withNull, density)
					for _, lit := range []string{"w-003", "w-099", "a", "zzz"} {
						for _, sql := range stringParityPredicates(lit) {
							assertStringPredParity(t, label, sql, cells, sel)
						}
					}
				}
			}
		}
	}
}

// FuzzStringKernelParity is the coverage-guided sweep: arbitrary (seed,
// rows, predicate, literal) corners must never make the dictionary word
// kernels on every representation (the transcoded v1 column included)
// and the sqlparse oracle disagree.
func FuzzStringKernelParity(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(0), uint8(3))
	f.Add(uint64(2), uint16(100), uint8(7), uint8(0))
	f.Add(uint64(3), uint16(300), uint8(13), uint8(9))
	f.Add(uint64(4), uint16(1), uint8(17), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, predIdx, litIdx uint8) {
		n := int(rows%300) + 1
		card := int(seed%9) + 1
		cells := buildStringCells(seed, n, card, seed%3 == 0, seed%2 == 0)
		lit := fmt.Sprintf("w-%03d", litIdx%12) // often beyond card: absent literals
		preds := stringParityPredicates(lit)
		sql := preds[int(predIdx)%len(preds)]
		sel := buildSel(seed^0xbeef, n, int(seed%5))
		assertStringPredParity(t, "fuzz", sql, cells, sel)
	})
}
