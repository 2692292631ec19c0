// Package freqstats maintains the observation multiset S produced by data
// integration and the frequency statistics (f-statistics) the paper's
// estimators are built on.
//
// In the paper's model (Section 2), l data sources each sample entities
// without replacement from an unknown ground truth D. Their union S is a
// multiset: the same entity can be observed by several sources. The user
// only sees the deduplicated database K. A Sample tracks, incrementally:
//
//   - n: the total number of observations (|S|),
//   - c: the number of unique entities (|K|),
//   - per-entity occurrence counts and attribute values,
//   - the f-statistics f_j = number of entities observed exactly j times
//     (f_1 are the singletons, f_2 the doubletons, ...),
//   - per-entity per-source observation counts — the full attribution of
//     which source delivered which entity how often. The per-source
//     contribution sizes n_j (needed by the Monte-Carlo estimator to
//     replay the sampling scenario) are maintained as running totals of
//     that attribution, so restricting a sample to any sub-population
//     (Filter) yields *exact* n_j for the sub-population, never a scaled
//     approximation.
//
// Source names are interned: each sample maps source names to dense local
// IDs once and stores per-entity attribution as small (source ID, count)
// vectors, so attribution costs O(sources-per-entity) integers per entity
// rather than a map per entity.
package freqstats

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Observation is a single data item delivered by a source: an entity
// identifier (after entity resolution), the entity's attribute value, and
// the source that reported it.
type Observation struct {
	// EntityID identifies the real-world entity. Observations with equal
	// EntityID are duplicates of the same entity.
	EntityID string
	// Value is the aggregated attribute value of the entity. The paper
	// assumes data cleaning has already reconciled conflicting values, so
	// all observations of an entity carry the same value; Sample.Add
	// keeps the first value seen and reports disagreement.
	Value float64
	// Source identifies the data source (crowd worker, web page, ...).
	Source string
}

// srcCount is one cell of an entity's attribution vector: the sample-local
// source ID and how many observations that source contributed for the
// entity.
type srcCount struct {
	src int32
	cnt int32
}

// entityStat is everything the sample tracks per unique entity: its
// record in the sample's entity-columnar layout.
type entityStat struct {
	count int
	value float64
	srcs  []srcCount
}

// Sample accumulates observations and maintains all statistics the
// estimators need. The zero value is an empty sample ready for use.
//
// The per-entity state is entity-columnar: entity i (in first-observation
// order) has its ID in order[i] and its record in ents[i], and index maps
// an ID back to i. Only the paths that look up or deduplicate an ID hash
// it; every walk over the entities (sums, filters, fingerprints) reads the
// slices in first-observation order.
//
// A sample built by MergePartials defers its index: nothing on the query
// path looks an ID up, so the index is built from order on first use (see
// ids). Every other constructor builds it eagerly.
type Sample struct {
	index map[string]int32 // entity ID -> position in order and ents
	order []string         // entity IDs in first-observation order
	ents  []entityStat     // per-entity records, aligned with order
	n     int              // |S|
	fstat map[int]int      // j -> f_j

	srcIDs    map[string]int32 // source name -> sample-local ID
	srcNames  []string         // sample-local ID -> source name
	srcTotals []int            // sample-local ID -> contribution size n_j

	// srcArena backs attribution vectors built through the bulk path, so
	// presized bulk construction does one slab allocation instead of one
	// per entity. Vectors are carved with a full slice expression, so a
	// later append to an entity's vector reallocates instead of clobbering
	// its arena neighbor.
	srcArena []srcCount

	// fpMemo/fpValid memoize Fingerprint: the result cache fingerprints the
	// same sample repeatedly, and the content hash is deterministic, so a
	// stale-free memo is just an atomic pair — value first, flag second —
	// invalidated by every mutation (bumpEntity, the chokepoint of
	// Add/AddEntityObservations/Merge). Concurrent recomputation is benign:
	// all writers store the same value.
	fpMemo  atomic.Uint64
	fpValid atomic.Bool

	// indexPending marks an index not yet built; indexMu, set with it by
	// MergePartials, serializes the build between the readers of a shared
	// sample (see ids). It is a pointer so that an eagerly indexed sample
	// that never leaves its builder's frame stays off the heap.
	indexPending atomic.Bool
	indexMu      *sync.Mutex
}

// NewSample returns an empty sample.
func NewSample() *Sample {
	return &Sample{
		index:  make(map[string]int32),
		fstat:  make(map[int]int),
		srcIDs: make(map[string]int32),
	}
}

// NewSampleWithCapacity returns an empty sample presized for roughly the
// given numbers of unique entities, sources and total observations, so bulk
// construction (the engine's shard-merge path) avoids incremental map and
// attribution-vector growth.
func NewSampleWithCapacity(entities, sources, observations int) *Sample {
	if entities < 0 {
		entities = 0
	}
	if sources < 0 {
		sources = 0
	}
	if observations < 0 {
		observations = 0
	}
	return &Sample{
		index:     make(map[string]int32, entities),
		order:     make([]string, 0, entities),
		ents:      make([]entityStat, 0, entities),
		fstat:     make(map[int]int),
		srcIDs:    make(map[string]int32, sources),
		srcNames:  make([]string, 0, sources),
		srcTotals: make([]int, 0, sources),
		srcArena:  make([]srcCount, 0, observations),
	}
}

// ensureMaps readies the entity maps for a mutation: it builds a deferred
// index and allocates the maps of a zero-value sample.
func (s *Sample) ensureMaps() {
	if s.ids() == nil {
		s.index = make(map[string]int32)
		s.fstat = make(map[int]int)
	}
}

// ids returns the entity index, building it from order first if
// MergePartials deferred it. A merged sample is shared read-only between
// goroutines (the executor's estimators, the result cache's requests), so
// the build runs under indexMu, and the atomic store that clears
// indexPending publishes the built map to readers that skip the lock.
func (s *Sample) ids() map[string]int32 {
	if s.indexPending.Load() {
		s.indexMu.Lock()
		if s.indexPending.Load() {
			index := make(map[string]int32, len(s.order))
			for i, id := range s.order {
				index[id] = int32(i)
			}
			s.index = index
			s.indexPending.Store(false)
		}
		s.indexMu.Unlock()
	}
	return s.index
}

// InternSource returns the sample-local ID for a source name, registering
// the name on first use. IDs are dense and stable for the lifetime of the
// sample; they are the currency of the bulk builder AddEntityObservations.
func (s *Sample) InternSource(name string) int32 {
	if s.srcIDs == nil {
		s.srcIDs = make(map[string]int32)
	}
	if id, ok := s.srcIDs[name]; ok {
		return id
	}
	id := int32(len(s.srcNames))
	s.srcIDs[name] = id
	s.srcNames = append(s.srcNames, name)
	s.srcTotals = append(s.srcTotals, 0)
	return id
}

// allocVec returns an empty attribution vector with capacity k, carved from
// the arena when it has room and standalone otherwise.
func (s *Sample) allocVec(k int) []srcCount {
	if n := len(s.srcArena); n+k <= cap(s.srcArena) {
		s.srcArena = s.srcArena[:n+k]
		return s.srcArena[n : n : n+k]
	}
	return make([]srcCount, 0, k)
}

// addToVec records cnt more observations by src in an attribution vector.
// Vectors are short (one cell per distinct source of the entity), so a
// linear scan beats any indexed structure.
func addToVec(vec []srcCount, src int32, cnt int32) []srcCount {
	for i := range vec {
		if vec[i].src == src {
			vec[i].cnt += cnt
			return vec
		}
	}
	return append(vec, srcCount{src: src, cnt: cnt})
}

// bumpEntity adds count observations of entity id, maintaining n, c, the
// entity's count, index, order and the f-statistics, and returns the
// entity's record for the caller to extend its attribution. A new entity
// takes value; conflict reports that a known entity's (first) value, which
// the record keeps, differs from value. The pointer is valid until the next
// entity is added.
func (s *Sample) bumpEntity(id string, value float64, count int) (es *entityStat, conflict bool) {
	s.fpValid.Store(false)
	i, ok := s.index[id]
	if !ok {
		i = int32(len(s.ents))
		s.index[id] = i
		s.order = append(s.order, id)
		s.ents = append(s.ents, entityStat{value: value})
	}
	es = &s.ents[i]
	if es.count > 0 {
		conflict = es.value != value
		s.fstat[es.count]--
		if s.fstat[es.count] == 0 {
			delete(s.fstat, es.count)
		}
	}
	s.n += count
	es.count += count
	s.fstat[es.count]++
	return es, conflict
}

// Add records one observation. It returns an error if the entity was seen
// before with a different value, which indicates the input was not cleaned
// (entity resolution / fusion is a prerequisite of the model, paper
// Section 2). The observation still counts toward the multiset in that case
// using the first value.
func (s *Sample) Add(obs Observation) error {
	s.ensureMaps()
	if obs.EntityID == "" {
		return fmt.Errorf("freqstats: observation with empty entity ID")
	}
	src := s.InternSource(obs.Source)
	es, conflict := s.bumpEntity(obs.EntityID, obs.Value, 1)
	es.srcs = addToVec(es.srcs, src, 1)
	s.srcTotals[src]++

	if conflict {
		return fmt.Errorf("freqstats: entity %q observed with conflicting values %g and %g (input not cleaned)",
			obs.EntityID, es.value, obs.Value)
	}
	return nil
}

// AddEntityObservations bulk-records that an entity was observed with the
// given value once per element of srcs — sample-local source IDs from
// InternSource, repeats allowed. It is equivalent to len(srcs) Add calls
// but with one index lookup, and it keeps the per-source contribution sizes
// n_j exactly attributed (sum_j n_j == n is a checked invariant).
// Re-adding a known entity extends its count and attribution; a value
// conflict is reported like Add (first value wins, observations still
// counted). The srcs slice is not retained.
func (s *Sample) AddEntityObservations(id string, value float64, srcs []int32) error {
	s.ensureMaps()
	if id == "" {
		return fmt.Errorf("freqstats: observation with empty entity ID")
	}
	if len(srcs) == 0 {
		return fmt.Errorf("freqstats: entity %q added with no source observations", id)
	}
	for _, src := range srcs {
		if src < 0 || int(src) >= len(s.srcNames) {
			return fmt.Errorf("freqstats: entity %q attributed to unknown source ID %d", id, src)
		}
	}
	es, conflict := s.bumpEntity(id, value, len(srcs))
	if es.srcs == nil {
		es.srcs = s.allocVec(len(srcs))
	}
	for _, src := range srcs {
		es.srcs = addToVec(es.srcs, src, 1)
		s.srcTotals[src]++
	}
	if conflict {
		return fmt.Errorf("freqstats: entity %q observed with conflicting values %g and %g (input not cleaned)",
			id, es.value, value)
	}
	return nil
}

// AddAll records all observations, stopping at the first error.
func (s *Sample) AddAll(obs []Observation) error {
	for _, o := range obs {
		if err := s.Add(o); err != nil {
			return err
		}
	}
	return nil
}

// N returns the multiset size n = |S|.
func (s *Sample) N() int { return s.n }

// C returns the number of unique entities c = |K|.
func (s *Sample) C() int { return len(s.ents) }

// lookup returns entity id's record, or nil for an unknown entity.
func (s *Sample) lookup(id string) *entityStat {
	if i, ok := s.ids()[id]; ok {
		return &s.ents[i]
	}
	return nil
}

// F returns f_j, the number of entities observed exactly j times.
func (s *Sample) F(j int) int {
	if s.fstat == nil {
		return 0
	}
	return s.fstat[j]
}

// F1 returns the singleton count f_1.
func (s *Sample) F1() int { return s.F(1) }

// F2 returns the doubleton count f_2.
func (s *Sample) F2() int { return s.F(2) }

// FStatistics returns a copy of the full frequency statistic {j: f_j}.
func (s *Sample) FStatistics() map[int]int {
	out := make(map[int]int, len(s.fstat))
	for j, f := range s.fstat {
		out[j] = f
	}
	return out
}

// Count returns how many times entity id was observed.
func (s *Sample) Count(id string) int {
	if es := s.lookup(id); es != nil {
		return es.count
	}
	return 0
}

// Value returns the attribute value of entity id and whether it was
// observed.
func (s *Sample) Value(id string) (float64, bool) {
	if es := s.lookup(id); es != nil {
		return es.value, true
	}
	return 0, false
}

// Entities returns the unique entity IDs in first-observation order. The
// returned slice is a copy.
func (s *Sample) Entities() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Values returns the attribute values of all unique entities in
// first-observation order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.ents))
	for i := range s.ents {
		out[i] = s.ents[i].value
	}
	return out
}

// SumValues returns phi_K: the aggregate SUM over the deduplicated
// database K.
func (s *Sample) SumValues() float64 {
	var sum float64
	for i := range s.ents {
		sum += s.ents[i].value
	}
	return sum
}

// SumSingletonValues returns phi_f1: the sum of attribute values over the
// entities observed exactly once (paper Section 3.2). Like SumValues it
// adds in first-observation order, so the result is the same on every call.
func (s *Sample) SumSingletonValues() float64 {
	var sum float64
	for i := range s.ents {
		if es := &s.ents[i]; es.count == 1 {
			sum += es.value
		}
	}
	return sum
}

// EachEntity calls fn with the value and occurrence count of every unique
// entity, in first-observation order.
func (s *Sample) EachEntity(fn func(value float64, count int)) {
	for i := range s.ents {
		fn(s.ents[i].value, s.ents[i].count)
	}
}

// SourceSizes returns the per-source contribution sizes n_j, sorted by
// source name for determinism. Sources whose observations were entirely
// filtered away do not appear.
func (s *Sample) SourceSizes() []int {
	names := s.sourceNamesWithObservations()
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = s.srcTotals[s.srcIDs[name]]
	}
	return out
}

// SourceContributions returns the exact per-source contribution sizes n_j
// keyed by source name. Sources with zero remaining observations are
// omitted. The returned map is a copy.
func (s *Sample) SourceContributions() map[string]int {
	out := make(map[string]int, len(s.srcNames))
	for id, total := range s.srcTotals {
		if total > 0 {
			out[s.srcNames[id]] = total
		}
	}
	return out
}

// EntitySourceCounts returns entity id's attribution: how many observations
// each source contributed for it, keyed by source name. The returned map is
// a copy; nil is returned for an unknown entity.
func (s *Sample) EntitySourceCounts(id string) map[string]int {
	es := s.lookup(id)
	if es == nil {
		return nil
	}
	out := make(map[string]int, len(es.srcs))
	for _, sc := range es.srcs {
		out[s.srcNames[sc.src]] = int(sc.cnt)
	}
	return out
}

// sourceNamesWithObservations returns the names of sources with at least
// one attributed observation, sorted.
func (s *Sample) sourceNamesWithObservations() []string {
	names := make([]string, 0, len(s.srcNames))
	for id, total := range s.srcTotals {
		if total > 0 {
			names = append(names, s.srcNames[id])
		}
	}
	sort.Strings(names)
	return names
}

// NumSources returns the number of distinct sources l with at least one
// observation in the sample.
func (s *Sample) NumSources() int {
	count := 0
	for _, total := range s.srcTotals {
		if total > 0 {
			count++
		}
	}
	return count
}

// OccurrenceCounts returns the per-entity occurrence counts in descending
// order. This is the "indexed" frequency profile compared by the
// Monte-Carlo estimator's KL-divergence distance.
func (s *Sample) OccurrenceCounts() []int {
	out := make([]int, len(s.ents))
	for i := range s.ents {
		out[i] = s.ents[i].count
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Clone returns a deep copy of the sample.
func (s *Sample) Clone() *Sample {
	c := &Sample{
		index:     maps.Clone(s.ids()),
		order:     slices.Clone(s.order),
		ents:      slices.Clone(s.ents),
		n:         s.n,
		fstat:     maps.Clone(s.fstat),
		srcIDs:    maps.Clone(s.srcIDs),
		srcNames:  slices.Clone(s.srcNames),
		srcTotals: slices.Clone(s.srcTotals),
		srcArena:  make([]srcCount, 0, s.n),
	}
	for i := range c.ents {
		es := &c.ents[i]
		es.srcs = append(c.allocVec(len(es.srcs)), es.srcs...)
	}
	return c
}

// Filter returns a new sample containing only entities for which keep
// returns true (for WHERE-predicate evaluation: the estimators run on the
// sub-population that satisfies the predicate). Observation counts, the
// f-statistics and the per-source contribution sizes n_j are all restricted
// exactly: each kept entity carries its attribution with it, so n_j counts
// precisely the kept observations source j delivered — the observations
// that sample the predicate's sub-population. A source concentrated
// entirely in the filtered-out region disappears from the result.
func (s *Sample) Filter(keep func(id string, value float64) bool) *Sample {
	// Presize the output arena to n, an upper bound on the kept attribution
	// cells (every cell covers at least one observation): one allocation,
	// and no cells retained twice across arena growth. The parent's own
	// attribution is at least as large, so the bound cannot dominate live
	// memory.
	out := NewSampleWithCapacity(0, len(s.srcNames), s.n)
	trans := newSourceTrans(len(s.srcNames))
	for i, id := range s.order {
		if keep(id, s.ents[i].value) {
			out.appendFrom(s, i, trans)
		}
	}
	return out
}

// newSourceTrans returns a source-ID translation table for appendFrom with
// every entry unmapped.
func newSourceTrans(n int) []int32 {
	trans := make([]int32, n)
	for i := range trans {
		trans[i] = -1
	}
	return trans
}

// appendFrom adds entity i of the sample src to out. trans lazily maps
// src's source IDs to out's (-1 = not yet interned), so only sources with
// kept observations are interned in out, in first-use order.
func (out *Sample) appendFrom(src *Sample, i int, trans []int32) {
	es, id := src.ents[i], src.order[i]
	// Carve the translated vector out of the output's arena (growing it
	// amortizes to a handful of allocations across the whole filter; a
	// mid-entity grow is fine, the final carve sees the final array).
	start := len(out.srcArena)
	for _, sc := range es.srcs {
		local := trans[sc.src]
		if local < 0 {
			local = out.InternSource(src.srcNames[sc.src])
			trans[sc.src] = local
		}
		out.srcArena = append(out.srcArena, srcCount{src: local, cnt: sc.cnt})
		out.srcTotals[local] += int(sc.cnt)
	}
	es.srcs = out.srcArena[start:len(out.srcArena):len(out.srcArena)]
	out.index[id] = int32(len(out.ents))
	out.order = append(out.order, id)
	out.ents = append(out.ents, es)
	out.n += es.count
	out.fstat[es.count]++
}

// FilterRange returns the sample restricted to entities whose value v
// satisfies lo <= v < hi (lo <= v <= hi when inclusiveHi) — the bucket
// sub-range restriction of the paper's bucket estimators. It is exactly
// Filter with the range predicate, so NaN-valued entities are never kept.
func (s *Sample) FilterRange(lo, hi float64, inclusiveHi bool) *Sample {
	return s.Filter(func(_ string, v float64) bool {
		if inclusiveHi {
			return v >= lo && v <= hi
		}
		return v >= lo && v < hi
	})
}

// PartitionRanges splits the sample into consecutive value ranges in one
// pass: part b holds the entities with los[b] <= v < los[b+1], and the last
// part those with los[len(los)-1] <= v <= hi. Each part equals FilterRange
// of its range — same entities in the same first-observation order, same
// attribution, sources interned in the same order — so a bucket strategy
// builds all its buckets at once instead of filtering once per bucket.
// los must be non-decreasing apart from NaN bounds. The range between two
// equal bounds is empty, as is a range with a NaN edge; entities in no
// range, NaN-valued ones included, belong to no part.
func (s *Sample) PartitionRanges(los []float64, hi float64) []*Sample {
	k := len(los)
	nanBound := slices.ContainsFunc(los, math.IsNaN)
	// part returns the index of the range holding v, or -1: the largest b
	// with los[b] <= v, provided v is below that range's upper edge. A NaN
	// bound breaks binary search, so bounds are then scanned linearly.
	part := func(v float64) int {
		b := k - 1
		if nanBound {
			for b >= 0 && !(los[b] <= v) {
				b--
			}
		} else {
			b = sort.Search(k, func(i int) bool { return los[i] > v }) - 1
		}
		if b < 0 || (b+1 < k && !(v < los[b+1])) || (b+1 == k && !(v <= hi)) {
			return -1
		}
		return b
	}
	// First pass: assign every entity and size each part, so each part is
	// built presized.
	assign := make([]int, len(s.ents))
	c := make([]int, k)
	n := make([]int, k)
	for i := range s.ents {
		b := part(s.ents[i].value)
		assign[i] = b
		if b >= 0 {
			c[b]++
			n[b] += s.ents[i].count
		}
	}
	parts := make([]*Sample, k)
	trans := make([][]int32, k)
	for b := range parts {
		parts[b] = NewSampleWithCapacity(c[b], len(s.srcNames), n[b])
		trans[b] = newSourceTrans(len(s.srcNames))
	}
	for i, b := range assign {
		if b >= 0 {
			parts[b].appendFrom(s, i, trans[b])
		}
	}
	return parts
}

// Merge folds another sample into this one, as if other's observations had
// been added here (distributed ingestion: shards merge into one sample).
// Source names are shared and attribution merges per entity: if source s1
// reported entity e in both shards, e's merged attribution counts both
// mentions — Merge cannot know whether the two shards saw the same mention,
// so shard by source to avoid double counting. The contribution sizes n_j
// stay exact sums of the merged per-entity attribution. An error is
// reported for value conflicts (first value wins), mirroring Add.
func (s *Sample) Merge(other *Sample) error {
	s.ensureMaps()
	var firstErr error
	// Translate other's source IDs into this sample's ID space once.
	trans := make([]int32, len(other.srcNames))
	for i, name := range other.srcNames {
		trans[i] = s.InternSource(name)
	}
	for i, id := range other.order {
		oes := &other.ents[i]
		es, conflict := s.bumpEntity(id, oes.value, oes.count)
		if conflict && firstErr == nil {
			firstErr = fmt.Errorf("freqstats: entity %q merged with conflicting values %g and %g",
				id, es.value, oes.value)
		}
		if es.srcs == nil {
			es.srcs = s.allocVec(len(oes.srcs))
		}
		for _, sc := range oes.srcs {
			local := trans[sc.src]
			es.srcs = addToVec(es.srcs, local, sc.cnt)
			s.srcTotals[local] += int(sc.cnt)
		}
	}
	return firstErr
}

// CheckInvariants verifies internal consistency: the entity index, the
// ID order and the records line up (index[order[i]] == i), sum_j j*f_j ==
// n, sum_j f_j == c, every count is positive, and the source attribution
// is exact — each entity's attribution sums to its occurrence count and
// the per-source totals n_j sum to n. It is used by tests and by the
// engine's self-checks; a non-nil error indicates a bug in this package.
func (s *Sample) CheckInvariants() error {
	index := s.ids()
	if len(index) != len(s.order) || len(s.order) != len(s.ents) {
		return fmt.Errorf("freqstats: index has %d entities, order %d, records %d",
			len(index), len(s.order), len(s.ents))
	}
	for i, id := range s.order {
		if at, ok := index[id]; !ok || int(at) != i {
			return fmt.Errorf("freqstats: entity %q is at position %d but indexed at %d (present %v)", id, i, at, ok)
		}
	}
	var n, c int
	for j, f := range s.fstat {
		if j <= 0 || f < 0 {
			return fmt.Errorf("freqstats: invalid f-statistic f_%d = %d", j, f)
		}
		n += j * f
		c += f
	}
	if n != s.n {
		return fmt.Errorf("freqstats: sum j*f_j = %d but n = %d", n, s.n)
	}
	if c != len(s.ents) {
		return fmt.Errorf("freqstats: sum f_j = %d but c = %d", c, len(s.ents))
	}
	var total int
	recomputed := make([]int, len(s.srcNames))
	for i, es := range s.ents {
		id := s.order[i]
		if es.count <= 0 {
			return fmt.Errorf("freqstats: entity %q has count %d", id, es.count)
		}
		total += es.count
		var attributed int
		for i, sc := range es.srcs {
			if sc.cnt <= 0 {
				return fmt.Errorf("freqstats: entity %q has non-positive attribution %d for source %q",
					id, sc.cnt, s.srcNames[sc.src])
			}
			if sc.src < 0 || int(sc.src) >= len(s.srcNames) {
				return fmt.Errorf("freqstats: entity %q attributed to unknown source ID %d", id, sc.src)
			}
			for _, prev := range es.srcs[:i] {
				if prev.src == sc.src {
					return fmt.Errorf("freqstats: entity %q has duplicate attribution cells for source %q",
						id, s.srcNames[sc.src])
				}
			}
			attributed += int(sc.cnt)
			recomputed[sc.src] += int(sc.cnt)
		}
		if attributed != es.count {
			return fmt.Errorf("freqstats: entity %q attribution sums to %d but count is %d", id, attributed, es.count)
		}
	}
	if total != s.n {
		return fmt.Errorf("freqstats: counts total %d but n = %d", total, s.n)
	}
	var sumNJ int
	for id, got := range s.srcTotals {
		if got != recomputed[id] {
			return fmt.Errorf("freqstats: source %q total n_j = %d but attribution sums to %d",
				s.srcNames[id], got, recomputed[id])
		}
		sumNJ += got
	}
	if sumNJ != s.n {
		return fmt.Errorf("freqstats: source sizes sum to %d but n = %d", sumNJ, s.n)
	}
	return nil
}
