package engine

import "math/bits"

// bitmap is a dense selection vector over the rows of one shard. Filter
// compilation produces one bit per row; logical connectives become
// whole-bitmap OR and AND-NOT sweeps instead of per-row branches (AND
// narrows the selection its right side evaluates), which is what makes the
// predicate path vectorized.
type bitmap struct {
	words []uint64
	n     int // number of valid bits
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
