package engine

import "math/bits"

// bitmap is a dense selection vector over the rows of one shard. Filter
// compilation produces one bit per row; logical connectives become word-wide
// AND/OR/AND-NOT sweeps instead of per-row branches, which is what makes the
// predicate path vectorized.
type bitmap struct {
	words []uint64
	n     int // number of valid bits
}

// newBitmap returns an all-zero bitmap of n bits.
func newBitmap(n int) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// reset resizes the bitmap to n bits and clears it, reusing the backing
// array when possible (query-scratch bitmaps are pooled).
func (b *bitmap) reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// grow extends the bitmap to n bits, preserving existing bits. New bits
// are zero. Used by the append-only column vectors.
func (b *bitmap) grow(n int) {
	w := (n + 63) / 64
	for len(b.words) < w {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// setAll sets every valid bit.
func (b *bitmap) setAll() { b.setFrom(0) }

// setFrom sets every valid bit from lo on; the bits below lo are left as
// they are.
func (b *bitmap) setFrom(lo int) {
	if lo >= b.n {
		return
	}
	w0 := lo >> 6
	b.words[w0] |= ^uint64(0) << (uint(lo) & 63)
	for i := w0 + 1; i < len(b.words); i++ {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
}

// clearTail zeroes the bits beyond n in the last word so popcounts and
// iteration never see ghost rows.
func (b *bitmap) clearTail() {
	if tail := b.n % 64; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << tail) - 1
	}
}

// set sets bit i.
func (b *bitmap) set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// get reports bit i.
func (b *bitmap) get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// count returns the number of set bits.
func (b *bitmap) count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// and sets b = b & other.
func (b *bitmap) and(other *bitmap) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// or sets b = b | other.
func (b *bitmap) or(other *bitmap) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// andNot sets b = b &^ other.
func (b *bitmap) andNot(other *bitmap) {
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// clampRange clips [lo, hi) to the bitmap's valid bits.
func (b *bitmap) clampRange(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	return lo, hi
}

// rangeBounds resolves a clipped non-empty [lo, hi) to its first and last
// word index plus the partial-word masks at each boundary: headMask keeps
// the bits of word w0 at or above lo, tailMask keeps the bits of word w1
// below hi. For a range within one word the effective mask is their
// intersection.
func rangeBounds(lo, hi int) (w0, w1 int, headMask, tailMask uint64) {
	w0, w1 = lo>>6, (hi-1)>>6
	headMask = ^uint64(0) << (uint(lo) & 63)
	tailMask = ^uint64(0)
	if t := uint(hi) & 63; t != 0 {
		tailMask = (uint64(1) << t) - 1
	}
	return w0, w1, headMask, tailMask
}

// andWords sets b = b & other over bits [lo, hi) only; bits outside the
// range are untouched. Boundary words are masked (inside the mask the
// combine applies, outside the original bit survives), interior words are
// single whole-word operations — the word-at-a-time combine contract the
// scan kernels build on.
func (b *bitmap) andWords(other *bitmap, lo, hi int) {
	lo, hi = b.clampRange(lo, hi)
	if lo >= hi {
		return
	}
	w0, w1, head, tail := rangeBounds(lo, hi)
	if w0 == w1 {
		m := head & tail
		b.words[w0] &= other.words[w0] | ^m
		return
	}
	b.words[w0] &= other.words[w0] | ^head
	for w := w0 + 1; w < w1; w++ {
		b.words[w] &= other.words[w]
	}
	b.words[w1] &= other.words[w1] | ^tail
}

// orWords sets b = b | other over bits [lo, hi) only.
func (b *bitmap) orWords(other *bitmap, lo, hi int) {
	lo, hi = b.clampRange(lo, hi)
	if lo >= hi {
		return
	}
	w0, w1, head, tail := rangeBounds(lo, hi)
	if w0 == w1 {
		b.words[w0] |= other.words[w0] & head & tail
		return
	}
	b.words[w0] |= other.words[w0] & head
	for w := w0 + 1; w < w1; w++ {
		b.words[w] |= other.words[w]
	}
	b.words[w1] |= other.words[w1] & tail
}

// andNotWords sets b = b &^ other over bits [lo, hi) only.
func (b *bitmap) andNotWords(other *bitmap, lo, hi int) {
	lo, hi = b.clampRange(lo, hi)
	if lo >= hi {
		return
	}
	w0, w1, head, tail := rangeBounds(lo, hi)
	if w0 == w1 {
		b.words[w0] &^= other.words[w0] & head & tail
		return
	}
	b.words[w0] &^= other.words[w0] & head
	for w := w0 + 1; w < w1; w++ {
		b.words[w] &^= other.words[w]
	}
	b.words[w1] &^= other.words[w1] & tail
}

// countRange returns the number of set bits in [lo, hi).
func (b *bitmap) countRange(lo, hi int) int {
	lo, hi = b.clampRange(lo, hi)
	if lo >= hi {
		return 0
	}
	w0, w1, head, tail := rangeBounds(lo, hi)
	if w0 == w1 {
		return bits.OnesCount64(b.words[w0] & head & tail)
	}
	c := bits.OnesCount64(b.words[w0] & head)
	for w := w0 + 1; w < w1; w++ {
		c += bits.OnesCount64(b.words[w])
	}
	return c + bits.OnesCount64(b.words[w1]&tail)
}

// forEachSet calls fn for every set bit in ascending order, with a dense
// fast path: an all-ones word becomes a straight 64-iteration run with no
// bit-scanning. For gather loops that cannot fail (no error plumbing).
func (b *bitmap) forEachSet(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		if w == ^uint64(0) {
			for i := base; i < base+64; i++ {
				fn(i)
			}
			continue
		}
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// copyFrom overwrites b with other (same length).
func (b *bitmap) copyFrom(other *bitmap) {
	b.words = b.words[:len(other.words)]
	copy(b.words, other.words)
	b.n = other.n
}

// forEach calls fn for every set bit in ascending order, stopping at the
// first error.
func (b *bitmap) forEach(fn func(i int) error) error {
	for wi, w := range b.words {
		base := wi << 6
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

// forEachRange is forEach restricted to set bits in [lo, hi). The
// full-range call degenerates to forEach, so single-extent scans (the
// in-memory backend) pay nothing for the range bounds; partial ranges
// mask the boundary words and sweep whole words in between, which is how
// multi-extent (disk-segment) scans stay word-at-a-time.
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
