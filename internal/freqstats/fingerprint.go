package freqstats

import "math"

// Cheap content fingerprints for samples, used by the engine's
// whole-result cache: a cache entry records the fingerprint of the sample
// it was computed from, so test-time self-checks (and curious operators)
// can verify that a cache hit really corresponds to the sample a cold
// scan would rebuild. The fingerprint is order-independent — two samples
// holding the same observation multiset with the same attribution hash
// equally regardless of construction order — and collisions are
// acceptable: it guards against cache bugs, it is not a cryptographic
// digest.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// Fingerprint returns a 64-bit content hash of the sample: the entity
// multiset with values, per-entity source attribution, and the aggregate
// counters. Entity hashes are combined commutatively, so the fingerprint
// is independent of observation order; it changes whenever an entity, a
// value, a count or any attribution cell changes. Cost is O(c + total
// attribution cells) on the first call; the result is memoized until the
// next mutation.
func (s *Sample) Fingerprint() uint64 {
	if s.fpValid.Load() {
		return s.fpMemo.Load()
	}
	fp := s.fingerprint()
	// Value before flag: a reader that sees fpValid also sees fpMemo.
	s.fpMemo.Store(fp)
	s.fpValid.Store(true)
	return fp
}

// fingerprint computes the hash; see Fingerprint.
func (s *Sample) fingerprint() uint64 {
	// Source-name hashes are precomputed once per pass, so the per-cell
	// work below is pure integer hashing regardless of name lengths.
	nameHash := make([]uint64, len(s.srcNames))
	for i, name := range s.srcNames {
		nameHash[i] = fnvString(fnvOffset64, name)
	}
	var sum, xor uint64
	for i, es := range s.ents {
		h := fnvString(fnvOffset64, s.order[i])
		h = fnvUint64(h, uint64(es.count))
		h = fnvUint64(h, math.Float64bits(es.value))
		// Attribution cells hash independently (by source NAME, so the hash
		// does not depend on sample-local ID assignment) and combine
		// commutatively — cell order is construction-dependent and must not
		// show through. An entity has at most one cell per source, so the
		// commutative fold loses no structure.
		var cellSum, cellXor uint64
		for _, sc := range es.srcs {
			ch := fnvUint64(nameHash[sc.src], uint64(sc.cnt))
			cellSum += ch
			cellXor ^= ch
		}
		h = fnvUint64(h, cellSum)
		h = fnvUint64(h, cellXor)
		sum += h
		xor ^= h
	}
	out := fnvUint64(fnvOffset64, uint64(s.n))
	out = fnvUint64(out, uint64(len(s.ents)))
	out = fnvUint64(out, sum)
	out = fnvUint64(out, xor)
	return out
}

// FootprintBytes estimates the retained heap size of the sample in bytes.
// It is an accounting approximation (map/slice headers are charged at
// fixed rates), intended for cache byte budgets, not exact profiling.
//
// The per-entity charge follows the entity-columnar layout (64-bit Go):
//
//	index   40  map[string]int32 slot: 16 B key + 4 B value padded to 24,
//	            plus 1 control byte, at a mean load of ~5/8 (the table
//	            doubles at 7/8 full, so its load runs from 7/16 to 7/8)
//	order   16  string header
//	ents    40  entityStat: count 8 + value 8 + srcs slice header 24
//	      ----
//	        96  + len(id): the ID bytes, shared by the index key and the
//	              order entry
//
// plus 8 B per attribution cell (srcCount) in the arena. The index slot
// is charged whether or not the index has been built (MergePartials
// defers it to first use), so the charge stays an upper bound for a
// sample whose index is built later, while it sits in a cache.
func (s *Sample) FootprintBytes() int {
	const (
		entityOverhead = 96 // index slot share + order entry + entityStat
		cellBytes      = 8  // srcCount
		sourceOverhead = 56 // interning map entry + name slot + total slot
	)
	n := 256 // struct + map headers
	for i, es := range s.ents {
		n += entityOverhead + len(s.order[i]) + cellBytes*len(es.srcs)
	}
	for _, name := range s.srcNames {
		n += sourceOverhead + len(name)
	}
	n += 32 * len(s.fstat)
	return n
}
