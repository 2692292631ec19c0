package engine

import (
	"errors"
	"fmt"
	"testing"
)

// newBitmap returns an all-zero bitmap of n bits.
func newBitmap(n int) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// setAll sets every valid bit.
func (b *bitmap) setAll() { b.setFrom(0) }

// buildBitmap fabricates an n-bit bitmap with deterministic pseudo-random
// contents.
func buildBitmap(seed uint64, n int) *bitmap {
	b := newBitmap(n)
	st := seed
	for i := 0; i < n; i++ {
		if splitmix64(&st)&1 != 0 {
			b.set(i)
		}
	}
	return b
}

// rangeCases covers the boundary geometries a range walk has to get
// right: empty, single bit, within one word, exact word spans, straddling
// words with lo/hi off the 64-bit grid, and out-of-range inputs that must
// clamp.
func rangeCases(n int) [][2]int {
	return [][2]int{
		{0, 0}, {5, 5}, {7, 8}, {0, n}, {-3, n + 9},
		{0, 1}, {0, 63}, {0, 64}, {0, 65}, {1, 64},
		{63, 65}, {64, 128}, {64, 129}, {65, 127},
		{3, 61}, {70, 90}, {100, n}, {n - 1, n},
	}
}

// TestBitmapWordCombineParity checks the whole-bitmap or/andNot the filter
// connectives combine with against a per-bit reference, on lengths that
// end inside, on and past a word edge.
func TestBitmapWordCombineParity(t *testing.T) {
	combos := []struct {
		name  string
		words func(b, o *bitmap)
		bit   func(a, b bool) bool
	}{
		{"or", (*bitmap).or, func(a, b bool) bool { return a || b }},
		{"andNot", (*bitmap).andNot, func(a, b bool) bool { return a && !b }},
	}
	for _, cb := range combos {
		for _, n := range []int{0, 1, 63, 64, 65, 300} {
			a := buildBitmap(uint64(n)+1, n)
			o := buildBitmap(uint64(n)+1000, n)
			want := make([]bool, n)
			for i := range want {
				want[i] = cb.bit(a.get(i), o.get(i))
			}
			cb.words(a, o)
			for i := range want {
				if a.get(i) != want[i] {
					t.Fatalf("%s n=%d: bit %d = %v, want %v", cb.name, n, i, a.get(i), want[i])
				}
			}
		}
	}
}

// TestBitmapForEachRangeParity checks the masked-word iteration against a
// plain get() loop, including the dense all-ones fast path.
func TestBitmapForEachRangeParity(t *testing.T) {
	const n = 300
	for bi, b := range []*bitmap{buildBitmap(5, n), func() *bitmap { d := newBitmap(n); d.setAll(); return d }()} {
		for _, r := range rangeCases(n) {
			var got, want []int
			for i := max(r[0], 0); i < min(r[1], n); i++ {
				if b.get(i) {
					want = append(want, i)
				}
			}
			err := b.forEachRange(r[0], r[1], func(i int) error {
				got = append(got, i)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("bitmap %d forEachRange(%d,%d) visited %v, want %v", bi, r[0], r[1], got, want)
			}
		}
	}
}

// TestBitmapForEachSetParity checks the error-free iterator (with its
// dense 64-run fast path) against forEach.
func TestBitmapForEachSetParity(t *testing.T) {
	for _, n := range []int{0, 1, 64, 300} {
		b := buildBitmap(uint64(n)+11, n)
		if n >= 128 {
			// Force the dense fast path on an interior word.
			b.words[1] = ^uint64(0)
		}
		var got, want []int
		b.forEachSet(func(i int) { got = append(got, i) })
		_ = b.forEach(func(i int) error { want = append(want, i); return nil })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d forEachSet visited %v, want %v", n, got, want)
		}
	}
}

// TestBitmapForEachRangeErrorStopsMidWord: an error returned by the
// callback must propagate out immediately — no further bits visited, not
// even the remaining set bits of the same word — and forEachRange must
// return that exact error. Regression test for the early-exit contract
// the scalar kernels (and their error parity with the word kernels)
// depend on.
func TestBitmapForEachRangeErrorStopsMidWord(t *testing.T) {
	const n = 200
	b := newBitmap(n)
	// Dense run inside word 1 so the failing bit has set successors both
	// within its own word and in later words.
	for i := 64; i < 200; i += 3 {
		b.set(i)
	}
	boom := errors.New("boom")
	const failAt = 94 // mid-word: bits 97, 100, ... remain in word 1
	for _, r := range [][2]int{{0, n}, {64, n}, {70, 150}, {94, 95}} {
		var visited []int
		err := b.forEachRange(r[0], r[1], func(i int) error {
			visited = append(visited, i)
			if i == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("range %v: err = %v, want boom", r, err)
		}
		if len(visited) == 0 || visited[len(visited)-1] != failAt {
			t.Fatalf("range %v: visited %v, want the walk to stop exactly at %d", r, visited, failAt)
		}
		for _, i := range visited[:len(visited)-1] {
			if i >= failAt {
				t.Fatalf("range %v: visited %d after the erroring bit", r, i)
			}
		}
	}
	// forEach (the full-range degenerate case) propagates the same way.
	var count int
	err := b.forEach(func(i int) error {
		count++
		if i == failAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("forEach err = %v, want boom", err)
	}
	wantVisits := 0
	for i := 64; i <= failAt; i += 3 {
		wantVisits++
	}
	if count != wantVisits {
		t.Fatalf("forEach visited %d bits, want %d (stop at first error)", count, wantVisits)
	}
}
