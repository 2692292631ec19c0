package engine

import (
	"fmt"
	"testing"

	"repro/internal/sqlparse"
)

// splitmix64 is the deterministic generator for kernel parity inputs —
// seedable from the fuzzer, no global rand state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b908
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildFloatExtent fabricates one column extent at the given base with n
// rows: pseudo-random values in [0, 100), with defined/valid bits carved
// out at the given densities (in 1/16ths of rows cleared).
func buildFloatExtent(seed uint64, base, n int, undefSixteenth, nullSixteenth bool) *colExtent {
	ext := &colExtent{
		base:    base,
		n:       n,
		floats:  make([]float64, n),
		defined: bitsView{words: make([]uint64, (n+63)/64)},
		valid:   bitsView{words: make([]uint64, (n+63)/64)},
	}
	st := seed
	for i := 0; i < n; i++ {
		r := splitmix64(&st)
		ext.floats[i] = float64(r%1000) / 10
		def := true
		if undefSixteenth && r%16 == 0 {
			def = false
		}
		val := def
		if nullSixteenth && r%16 == 1 {
			val = false
		}
		if def {
			ext.defined.words[i>>6] |= 1 << (uint(i) & 63)
		}
		if val {
			ext.valid.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return ext
}

// buildSel fabricates a selection bitmap over rows rows with roughly the
// given density in 1/4ths.
func buildSel(seed uint64, rows, quarter int) *bitmap {
	sel := newBitmap(rows)
	st := seed
	for i := 0; i < rows; i++ {
		if int(splitmix64(&st)%4) < quarter {
			sel.set(i)
		}
	}
	return sel
}

var kernelOps = []sqlparse.CompareOp{
	sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt,
	sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe,
}

// assertFloatKernelParity runs the word kernel and the scalar reference
// over the same extent/selection and requires bit-identical output
// bitmaps and identical errors.
func assertFloatKernelParity(t *testing.T, label string, ext *colExtent, sel *bitmap, op sqlparse.CompareOp, c float64) {
	t.Helper()
	rows := ext.base + ext.n
	outW := newBitmap(rows)
	outS := newBitmap(rows)
	errW := evalFloatCmpWords(ext, sel, outW, "v", op, c)
	errS := evalFloatCmpScalar(ext, sel, outS, "v", op, c)
	assertKernelAgree(t, fmt.Sprintf("%s op=%v", label, op), outW, outS, errW, errS)
}

// TestFloatKernelParity sweeps the word-at-a-time float compare kernel
// against the per-row scalar reference across extent shapes: single
// partial word, exact word, word+tail, multi-word, and extents starting
// at every in-word offset (the disk backend's segment and tail extents),
// with and without NULLs, at several selection densities.
func TestFloatKernelParity(t *testing.T) {
	shapes := append([]extentShape{
		{0, 1}, {0, 63}, {0, 64}, {0, 65}, {0, 100}, {0, 128},
		{0, 300}, {64, 64}, {64, 100}, {128, 63}, {192, 257},
	}, everyOffsetShapes()...)
	for si, sh := range shapes {
		for _, withNull := range []bool{false, true} {
			for density := 0; density <= 4; density++ {
				seed := uint64(si*1000 + density)
				ext := buildFloatExtent(seed, sh.base, sh.n, false, withNull)
				sel := buildSel(seed+7, sh.base+sh.n, density)
				for _, op := range kernelOps {
					label := fmt.Sprintf("base=%d n=%d null=%v dens=%d", sh.base, sh.n, withNull, density)
					assertFloatKernelParity(t, label, ext, sel, op, 50)
				}
			}
		}
	}
}

// TestFloatKernelErrorParity: a selection touching undefined rows must
// produce the same error from both paths, for every undefined-row
// position within a word (head, middle, tail bits).
func TestFloatKernelErrorParity(t *testing.T) {
	for _, n := range []int{64, 100, 190} {
		ext := buildFloatExtent(42, 0, n, true, true)
		sel := newBitmap(n)
		sel.setAll()
		for _, op := range kernelOps {
			assertFloatKernelParity(t, fmt.Sprintf("err n=%d", n), ext, sel, op, 50)
		}
	}
}

// TestFloatKernelMultiExtent mimics a disk shard whose segments do not
// split on word boundaries: the word kernel runs on an aligned head
// extent and on the unaligned continuation, and the combined output must
// equal one flat scalar evaluation of the whole column.
func TestFloatKernelMultiExtent(t *testing.T) {
	const segRows = 160 // not a multiple of 64: second extent is unaligned
	const tailRows = 90
	rows := segRows + tailRows
	whole := buildFloatExtent(9, 0, rows, false, true)

	// Slice the flat column into two extents sharing the same cells.
	head := &colExtent{base: 0, n: segRows, floats: whole.floats[:segRows],
		defined: bitsView{words: make([]uint64, (segRows+63)/64)},
		valid:   bitsView{words: make([]uint64, (segRows+63)/64)}}
	tail := &colExtent{base: segRows, n: tailRows, floats: whole.floats[segRows:],
		defined: bitsView{words: make([]uint64, (tailRows+63)/64)},
		valid:   bitsView{words: make([]uint64, (tailRows+63)/64)}}
	for i := 0; i < rows; i++ {
		ext, j := head, i
		if i >= segRows {
			ext, j = tail, i-segRows
		}
		if whole.defined.get(i) {
			ext.defined.words[j>>6] |= 1 << (uint(j) & 63)
		}
		if whole.valid.get(i) {
			ext.valid.words[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	if head.base&63 != 0 || tail.base&63 == 0 {
		t.Fatal("test setup: head must be aligned, tail unaligned")
	}

	for density := 1; density <= 4; density++ {
		sel := buildSel(uint64(density), rows, density)
		for _, op := range kernelOps {
			got := newBitmap(rows)
			if err := evalFloatCmpWords(head, sel, got, "v", op, 50); err != nil {
				t.Fatal(err)
			}
			if err := evalFloatCmpWords(tail, sel, got, "v", op, 50); err != nil {
				t.Fatal(err)
			}
			want := newBitmap(rows)
			if err := evalFloatCmpScalar(whole, sel, want, "v", op, 50); err != nil {
				t.Fatal(err)
			}
			for i := range want.words {
				if got.words[i] != want.words[i] {
					t.Fatalf("dens=%d op=%v word %d: split=%016x flat=%016x", density, op, i, got.words[i], want.words[i])
				}
			}
		}
	}
}

// buildBoolExtent fabricates a bool extent; packed selects the segment
// (boolBytes) representation over live []bool.
func buildBoolExtent(seed uint64, base, n int, packed, withUndef, withNull bool) *colExtent {
	ext := &colExtent{
		base:    base,
		n:       n,
		defined: bitsView{words: make([]uint64, (n+63)/64)},
		valid:   bitsView{words: make([]uint64, (n+63)/64)},
	}
	if packed {
		ext.boolBytes = make([]byte, n)
	} else {
		ext.bools = make([]bool, n)
	}
	st := seed
	for i := 0; i < n; i++ {
		r := splitmix64(&st)
		if packed {
			ext.boolBytes[i] = byte(r & 1)
		} else {
			ext.bools[i] = r&1 != 0
		}
		def := !(withUndef && r%16 == 0)
		val := def && !(withNull && r%16 == 1)
		if def {
			ext.defined.words[i>>6] |= 1 << (uint(i) & 63)
		}
		if val {
			ext.valid.words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return ext
}

// TestBoolKernelParity sweeps the bool-column word kernel against its
// scalar reference over both storage representations, including the
// error cases (undefined rows, NULLs — which the bool path rejects as
// non-boolean — and the not-a-bool-column type error), asserting the two
// paths agree on output bits and on which error fires first.
func TestBoolKernelParity(t *testing.T) {
	for _, packed := range []bool{false, true} {
		for _, isBool := range []bool{true, false} {
			for _, withErr := range []bool{false, true} {
				for _, sh := range append([]extentShape{{0, 64}, {0, 100}, {64, 190}}, everyOffsetShapes()...) {
					n := &boolColNode{name: "b", isBool: isBool}
					ext := buildBoolExtent(uint64(sh.n), sh.base, sh.n, packed, withErr, withErr)
					for density := 1; density <= 4; density++ {
						sel := buildSel(uint64(density)+99, sh.base+sh.n, density)
						rows := sh.base + sh.n
						outW, outS := newBitmap(rows), newBitmap(rows)
						errW := n.evalWords(ext, sel, outW)
						errS := n.evalScalar(ext, sel, outS)
						label := fmt.Sprintf("packed=%v isBool=%v err=%v base=%d n=%d dens=%d", packed, isBool, withErr, sh.base, sh.n, density)
						assertKernelAgree(t, label, outW, outS, errW, errS)
					}
				}
			}
		}
	}
}

// FuzzFloatKernelParity is the coverage-guided version of the parity
// sweep: arbitrary (seed, rows, op, constant) corners must never make the
// word kernel and the per-row reference disagree.
func FuzzFloatKernelParity(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(0), 50.0)
	f.Add(uint64(2), uint16(100), uint8(2), 12.3)
	f.Add(uint64(3), uint16(300), uint8(5), 99.9)
	f.Add(uint64(4), uint16(1), uint8(4), 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, opIdx uint8, c float64) {
		n := int(rows%512) + 1
		op := kernelOps[int(opIdx)%len(kernelOps)]
		bst := seed ^ 0xba5e
		base := int(splitmix64(&bst) % 256) // any in-word offset
		ext := buildFloatExtent(seed, base, n, seed%3 == 0, seed%2 == 0)
		sel := buildSel(seed^0xdead, base+n, int(seed%5))
		total := base + n
		outW, outS := newBitmap(total), newBitmap(total)
		errW := evalFloatCmpWords(ext, sel, outW, "v", op, c)
		errS := evalFloatCmpScalar(ext, sel, outS, "v", op, c)
		assertKernelAgree(t, fmt.Sprintf("base=%d n=%d op=%v", base, n, op), outW, outS, errW, errS)
	})
}
