package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/freqstats"
	"repro/internal/species"
	"repro/internal/stats"
)

// BucketResult describes one bucket produced by a bucketing strategy: the
// value range it covers, the size and value sum of the sub-population
// falling in it, and the inner estimator's estimate for that
// sub-population. The bucket's sub-sample is built only on request, by
// Sample; the aggregates answer SUM, COUNT, AVG and MIN/MAX without it.
type BucketResult struct {
	// Lo and Hi delimit the bucket's value range. Lo is inclusive; Hi is
	// exclusive except for the last bucket, which includes its upper edge.
	Lo, Hi float64
	// C and N are the bucket's unique-entity count c and observation
	// count n.
	C, N int
	// Sum is the sum of the bucket's values, added in first-observation
	// order: bit for bit Sample().SumValues().
	Sum float64
	// Est is the inner estimator's result on the bucket's sub-sample.
	Est Estimate

	src  *freqstats.Sample // the sample the strategy split
	last bool              // the range is closed at Hi
}

// Sample materializes the bucket: the restriction of the split sample to
// [Lo, Hi) ([Lo, Hi] for the last bucket), FilterRange's result. The
// restriction carries per-entity source attribution with it, so the
// sub-sample reports the exact per-source sizes n_j of its value range: an
// inner Monte-Carlo estimator (or a streaker diagnosis) sees the true
// per-range source profile, including sources concentrated in a single
// range. Each call filters anew; the BucketResult must come from a
// strategy of this package.
func (b BucketResult) Sample() *freqstats.Sample {
	return b.src.FilterRange(b.Lo, b.Hi, b.last)
}

// holds reports whether value v lies in the bucket's range, with
// FilterRange's semantics (so NaN lies in none).
func (b BucketResult) holds(v float64) bool {
	return v >= b.Lo && (v < b.Hi || b.last && v <= b.Hi)
}

// Bucket is the bucket estimator of Section 3.3: it divides the observed
// value range into sub-ranges, treats each as a separate data set,
// estimates the impact of unknown unknowns per bucket with an inner
// estimator, and sums the per-bucket estimates (equation 11). Bucketing
// contains the publicity-value correlation: each bucket holds items of
// similar value, so mean substitution within a bucket is far less biased.
//
// The zero value uses the dynamic strategy of Algorithm 1 with the Naive
// inner estimator — the configuration the paper simply calls "Bucket".
type Bucket struct {
	// Inner estimates Delta within each bucket. Nil means Naive{}.
	Inner SumEstimator
	// Strategy picks bucket boundaries. Nil means Dynamic{}.
	Strategy BucketStrategy
}

// Name implements SumEstimator.
func (b Bucket) Name() string {
	inner := b.inner().Name()
	strat := b.strategy().Name()
	if inner == "naive" && strat == "dynamic" {
		return "bucket"
	}
	return fmt.Sprintf("bucket(%s,%s)", strat, inner)
}

func (b Bucket) inner() SumEstimator {
	if b.Inner == nil {
		return Naive{}
	}
	return b.Inner
}

func (b Bucket) strategy() BucketStrategy {
	if b.Strategy == nil {
		return Dynamic{}
	}
	return b.Strategy
}

// EstimateSum implements SumEstimator.
func (b Bucket) EstimateSum(s *freqstats.Sample) Estimate {
	buckets := b.Buckets(s)
	e := Estimate{
		Observed:      s.SumValues(),
		CountObserved: s.C(),
	}
	if len(buckets) == 0 {
		return e
	}
	e.Valid = true
	var delta, nHat float64
	var cov float64
	for _, bk := range buckets {
		delta += bk.Est.Delta
		nHat += bk.Est.CountEstimated
		e.Diverged = e.Diverged || bk.Est.Diverged
		cov += bk.Est.Coverage * float64(bk.N)
	}
	e.CountEstimated = nHat
	if s.N() > 0 {
		e.Coverage = cov / float64(s.N())
	}
	e.LowCoverage = e.Coverage < species.MinReliableCoverage
	return finishEstimate(e, delta)
}

// Buckets runs the strategy and returns the per-bucket breakdown. The
// result is ordered by value range. An empty sample yields nil. Each
// bucket carries its aggregates and estimate; its sub-sample is built only
// when BucketResult.Sample is called.
func (b Bucket) Buckets(s *freqstats.Sample) []BucketResult {
	if s.C() == 0 {
		return nil
	}
	return b.strategy().Split(s, b.inner())
}

// BucketStrategy determines bucket boundaries for the bucket estimator.
type BucketStrategy interface {
	Name() string
	// Split partitions s into buckets, estimating each with inner. Each
	// result's Sample must restrict s to the bucket's range.
	Split(s *freqstats.Sample, inner SumEstimator) []BucketResult
}

// rangeSample restricts s to entities with value in [lo, hi) — or [lo, hi]
// when last is true — and estimates the restriction with inner. Only the
// materializing dynamic search of generic inners filters bucket by bucket;
// the static strategies build their buckets with rangeBuckets.
func rangeSample(s *freqstats.Sample, inner SumEstimator, lo, hi float64, last bool) BucketResult {
	return newBucketResult(s, s.FilterRange(lo, hi, last), inner, lo, hi, last)
}

// newBucketResult describes the bucket [lo, hi) (closed when last) of s,
// whose sub-sample is sub, and estimates sub with inner.
func newBucketResult(s, sub *freqstats.Sample, inner SumEstimator, lo, hi float64, last bool) BucketResult {
	return BucketResult{
		Lo: lo, Hi: hi,
		C: sub.C(), N: sub.N(), Sum: sub.SumValues(),
		Est: inner.EstimateSum(sub),
		src: s, last: last,
	}
}

// rangeBuckets builds the static strategies' buckets [los[b], los[b+1]),
// the last one closed at hi, in one partition pass over s and estimates
// each with inner. Each part equals FilterRange of its range, so it is
// exactly what the bucket's Sample rebuilds on request; the parts
// themselves are not kept. Empty buckets are dropped.
func rangeBuckets(s *freqstats.Sample, inner SumEstimator, los []float64, hi float64) []BucketResult {
	parts := s.PartitionRanges(los, hi)
	out := make([]BucketResult, 0, len(parts))
	for b, sub := range parts {
		if sub.C() == 0 {
			continue
		}
		bHi := hi
		if b+1 < len(los) {
			bHi = los[b+1]
		}
		out = append(out, newBucketResult(s, sub, inner, los[b], bHi, b+1 == len(los)))
	}
	return out
}

// EquiWidth is the static equi-width strategy of Section 3.3.1: the
// observed value range is divided into K buckets of equal width
// (equation 12). Buckets that end up empty are dropped; buckets containing
// only singletons diverge (the estimate is flagged, matching the paper's
// observation that static bucket estimates can blow up).
type EquiWidth struct {
	// K is the number of buckets; values < 1 are treated as 1.
	K int
}

// Name implements BucketStrategy.
func (w EquiWidth) Name() string { return fmt.Sprintf("eqwidth-%d", w.k()) }

func (w EquiWidth) k() int {
	if w.K < 1 {
		return 1
	}
	return w.K
}

// Split implements BucketStrategy.
func (w EquiWidth) Split(s *freqstats.Sample, inner SumEstimator) []BucketResult {
	values := s.Values()
	lo, _ := stats.Min(values)
	hi, _ := stats.Max(values)
	k := w.k()
	if lo == hi {
		k = 1
	}
	los := make([]float64, k)
	for i := range los {
		los[i] = lo + (hi-lo)*float64(i)/float64(k)
	}
	// The top edge comes from the same formula as the others (i = k), not
	// from hi, so every edge is exactly equation 12's.
	return rangeBuckets(s, inner, los, lo+(hi-lo)*float64(k)/float64(k))
}

// EquiHeight is the static equi-height strategy of Appendix B: the sorted
// observed values are divided into K buckets of (approximately) equal
// entity count.
type EquiHeight struct {
	// K is the number of buckets; values < 1 are treated as 1.
	K int
}

// Name implements BucketStrategy.
func (h EquiHeight) Name() string { return fmt.Sprintf("eqheight-%d", h.k()) }

func (h EquiHeight) k() int {
	if h.K < 1 {
		return 1
	}
	return h.K
}

// Split implements BucketStrategy.
func (h EquiHeight) Split(s *freqstats.Sample, inner SumEstimator) []BucketResult {
	edges, err := stats.EquiHeightEdges(s.Values(), h.k())
	if err != nil || len(edges) < 2 {
		return nil
	}
	return rangeBuckets(s, inner, edges[:len(edges)-1], edges[len(edges)-1])
}

// Dynamic is the dynamic bucketing strategy of Algorithm 1 (Section
// 3.3.2): starting from a single bucket over the whole value range, it
// recursively splits a bucket at the unique value that minimizes the
// overall estimated impact sum |Delta|, and keeps a split only if it
// lowers that sum. Splitting monotonically inflates the count estimate
// (equations 13-14), so a decrease in |Delta| signals that the finer value
// resolution genuinely improved the estimate — the conservative
// "only split to underestimate" rule.
//
// With the Naive or Frequency inner estimator the search runs on index
// ranges of one value-sorted entity array (see splitRanges) and the final
// buckets are priced on aggregates; no sub-sample is built. Any other
// inner estimator, or a sample of 2³¹ or more observations, is searched
// by materializing every candidate sub-sample.
// Both give the same buckets. The root bucket spans [min, max] of the
// values with stats.Min/Max semantics, so NaN-valued entities fall in no
// bucket.
type Dynamic struct{}

// Name implements BucketStrategy.
func (Dynamic) Name() string { return "dynamic" }

// Split implements BucketStrategy.
func (Dynamic) Split(s *freqstats.Sample, inner SumEstimator) []BucketResult {
	// The range index holds counts and first-observation indexes in 32
	// bits; a larger sample takes the materializing search.
	if s.N() <= math.MaxInt32 {
		switch inner.(type) {
		case Naive:
			return splitRanges(s, false)
		case Frequency:
			return splitRanges(s, true)
		}
	}
	values := s.Values()
	lo, ok := stats.Min(values)
	if !ok {
		return nil
	}
	hi, _ := stats.Max(values)

	todo := []BucketResult{rangeSample(s, inner, lo, hi, true)}
	var done []BucketResult

	for len(todo) > 0 {
		b := todo[0]
		todo = todo[1:]
		// Cost of every bucket except the one being considered for a
		// split. The bucket sets are small, so summing directly is clearer
		// (and safer with infinite costs) than maintaining a running total.
		rest := costSum(todo) + costSum(done)

		best, ok := bestSplit(b, inner, rest)
		if ok {
			todo = append(todo, best[0], best[1])
		} else {
			done = append(done, b)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Lo < done[j].Lo })
	return done
}

// splitCost is the cost |Delta| of a bucket in the dynamic split search.
// A bucket containing only singletons makes the naive estimate divide by
// zero (n == f1, equation 8); the paper treats such estimates as infinite,
// which disqualifies any split that isolates singletons.
func splitCost(b BucketResult) float64 {
	if b.Est.Diverged {
		return math.Inf(1)
	}
	return math.Abs(b.Est.Delta)
}

func costSum(bs []BucketResult) float64 {
	var t float64
	for _, b := range bs {
		t += splitCost(b)
	}
	return t
}

// bestSplit searches every unique attribute value in b as a split point
// and returns the sub-bucket pair minimizing rest + cost(t1) + cost(t2),
// provided it strictly improves on keeping b whole. It materializes b once
// and two filtered samples per candidate, which works for any inner
// estimator; splitRanges is the fast path for the inners it can price on
// aggregates. The children filter b's sub-sample, which restricts to the
// same sub-samples as filtering the split sample.
func bestSplit(b BucketResult, inner SumEstimator, rest float64) ([2]BucketResult, bool) {
	sub := b.Sample()
	uniq := uniqueSortedValues(sub)
	if len(uniq) < 2 {
		return [2]BucketResult{}, false
	}
	deltaMin := rest + splitCost(b) // current total; splits must beat this
	var best [2]BucketResult
	found := false
	for _, v := range uniq[1:] { // splitting below the minimum is a no-op
		t1 := rangeSample(sub, inner, b.Lo, v, false)
		t2 := rangeSample(sub, inner, v, b.Hi, b.last)
		if t1.C == 0 || t2.C == 0 {
			continue
		}
		cand := rest + splitCost(t1) + splitCost(t2)
		if deltaMin > cand {
			deltaMin = cand
			best = [2]BucketResult{t1, t2}
			found = true
		}
	}
	return best, found
}

// sideStats are the aggregates a bucket (or one side of a candidate split)
// needs to reproduce Naive{}.EstimateSum and Frequency{}.EstimateSum
// exactly: Chao92 reads only n, c, f1 and sum_j j(j-1) f_j; mean
// substitution additionally reads sum(values), and singleton-mean
// substitution reads the sum of values over singletons.
type sideStats struct {
	n, c, f1 int
	s2       int     // sum over entities of count*(count-1) == sum_j j(j-1) f_j
	sum      float64 // sum of values over all entities
	f1sum    float64 // sum of values over the singleton entities (phi_f1)
}

// add folds entity e into the side's counts and value sums.
func (st *sideStats) add(e rangeEnt) {
	count := int(e.count)
	st.n += count
	st.c++
	st.s2 += count * (count - 1)
	st.sum += e.value
	if count == 1 {
		st.f1++
		st.f1sum += e.value
	}
}

// chao92FromStats replays species.Chao92's count estimate on aggregates:
// valid is false for an empty side, and a side of pure singletons
// (coverage 0) is diverged, with N-hat falling back to the first-order
// jackknife c + f1(n-1)/n as in species.Chao92.
func chao92FromStats(st sideStats) (nHat float64, valid, diverged bool) {
	n, c := st.n, st.c
	if n == 0 || c == 0 {
		return 0, false, false
	}
	cov := 1 - float64(st.f1)/float64(n)
	if cov <= 0 {
		return float64(c) + float64(st.f1)*float64(n-1)/float64(n), true, true
	}
	var cv2 float64
	if n >= 2 {
		cv2 = float64(c)/cov*float64(st.s2)/(float64(n)*float64(n-1)) - 1
		if cv2 < 0 {
			cv2 = 0
		}
	}
	nHat = float64(c)/cov + float64(n)*(1-cov)/cov*cv2
	if nHat < float64(c) {
		nHat = float64(c)
	}
	return nHat, true, false
}

// naiveDelta is Naive's Delta-hat for a side with count estimate nHat:
// mean substitution sum/c * (N-hat - c).
func (st *sideStats) naiveDelta(nHat float64) float64 {
	c := float64(st.c)
	return st.sum / c * (nHat - c)
}

// freqDelta is Frequency's Delta-hat for a side with count estimate nHat:
// singleton-mean substitution phi_f1/f1 * (N-hat - c), 0 when the side has
// no singletons (it looks complete to the frequency estimator).
func (st *sideStats) freqDelta(nHat float64) float64 {
	if st.f1 == 0 {
		return 0
	}
	return st.f1sum / float64(st.f1) * (nHat - float64(st.c))
}

// statsEstimate replays Naive{}.EstimateSum (Frequency{}.EstimateSum with
// freq) of a sample whose aggregates are st, field for field. The result
// is the materialized estimate bit for bit when st.sum and st.f1sum were
// added in the sample's first-observation order, as SumValues and
// SumSingletonValues add them.
func statsEstimate(st sideStats, freq bool) Estimate {
	e := Estimate{Observed: st.sum, CountObserved: st.c}
	nHat, valid, diverged := chao92FromStats(st)
	if !valid {
		return e
	}
	e.Valid, e.Diverged, e.CountEstimated = true, diverged, nHat
	e.Coverage = 1 - float64(st.f1)/float64(st.n)
	e.LowCoverage = e.Coverage < species.MinReliableCoverage
	delta := st.naiveDelta(nHat)
	if freq {
		delta = st.freqDelta(nHat)
	}
	return finishEstimate(e, delta)
}

// naiveSplitCost and freqSplitCost are splitCost of statsEstimate(st,
// false) and statsEstimate(st, true), without building the estimate: 0 for
// an empty side, Inf for a diverged one, |Delta| otherwise. A
// candidate split's sides are summed in value order, as the sweep walks
// them; on non-integer data that can differ from the materialized cost in
// the last bits, which only matters for exact cost ties.
func naiveSplitCost(st sideStats) float64 {
	nHat, valid, diverged := chao92FromStats(st)
	switch {
	case !valid:
		return 0
	case diverged:
		return math.Inf(1)
	}
	return deltaCost(st.naiveDelta(nHat))
}

func freqSplitCost(st sideStats) float64 {
	nHat, valid, diverged := chao92FromStats(st)
	switch {
	case !valid:
		return 0
	case diverged:
		return math.Inf(1)
	}
	return deltaCost(st.freqDelta(nHat))
}

// deltaCost is the cost of a valid, non-diverged side with impact delta:
// |delta|, or Inf when delta is not finite (finishEstimate flags that
// Diverged).
func deltaCost(delta float64) float64 {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return math.Inf(1)
	}
	return math.Abs(delta)
}

// rangeEnt is one entity of the dynamic search's columnar arrays: its
// value, occurrence count and first-observation index. Both integers fit
// in 32 bits because Dynamic.Split indexes only samples of fewer than 2³¹
// observations.
type rangeEnt struct {
	value float64
	count int32
	seq   int32
}

// rangeIndex is the dynamic search's columnar view of a sample: the
// entities with value in the root range [lo, hi] sorted by (value,
// first-observation index), and the same entities in first-observation
// order. The root range follows stats.Min/Max: NaN values are skipped,
// unless the first value is NaN, which makes the root range (and so every
// bucket) empty.
type rangeIndex struct {
	sorted, bySeq []rangeEnt
	lo, hi        float64
}

// newRangeIndex reads s, which holds fewer than 2³¹ observations, once
// into a rangeIndex; ok is false for an empty sample. spare is the sort's
// second buffer, len(x.sorted) entities the caller may reuse as split's
// scratch. bySeq, sorted and spare share one allocation.
func newRangeIndex(s *freqstats.Sample) (x rangeIndex, spare []rangeEnt, ok bool) {
	c := s.C()
	if c == 0 {
		return x, nil, false
	}
	back := make([]rangeEnt, 3*c)
	ents := back[:0:c]
	s.EachEntity(func(v float64, count int) {
		ents = append(ents, rangeEnt{value: v, count: int32(count), seq: int32(len(ents))})
	})
	x.lo, x.hi = ents[0].value, ents[0].value
	for _, e := range ents[1:] {
		if e.value < x.lo {
			x.lo = e.value
		}
		if e.value > x.hi {
			x.hi = e.value
		}
	}
	x.bySeq = ents[:0]
	for _, e := range ents {
		if e.value >= x.lo && e.value <= x.hi {
			x.bySeq = append(x.bySeq, e)
		}
	}
	// bySeq holds no NaN and ascends by seq, so a stable sort by value
	// yields the (value, seq) order.
	m := len(x.bySeq)
	a := back[c : c+m : c+m]
	copy(a, x.bySeq)
	x.sorted, spare = radixSortByValue(a, back[2*c:2*c+m:2*c+m])
	return x, spare, true
}

// valueKey maps a non-NaN value to a key whose unsigned order is the
// value's cmp.Compare order: the sign bit is set on non-negative values
// and every bit flipped on negative ones, after -0 is folded onto +0,
// which cmp.Compare ties with it.
func valueKey(v float64) uint64 {
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortByValue stably sorts a by valueKey with a least-significant-
// byte-first radix sort, moving entities between a and buf (which must be
// as long as a), and returns the sorted buffer and the other one. A pass
// on whose byte every key agrees is skipped. a must hold no NaN.
func radixSortByValue(a, buf []rangeEnt) (sorted, spare []rangeEnt) {
	if len(a) < 2 {
		return a, buf
	}
	var counts [8][256]int32
	for _, e := range a {
		k := valueKey(e.value)
		for p := range counts {
			counts[p][byte(k>>(8*p))]++
		}
	}
	first := valueKey(a[0].value)
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if int(c[byte(first>>shift)]) == len(a) {
			continue
		}
		var at int32
		for d, n := range c {
			c[d], at = at, at+n
		}
		for _, e := range a {
			d := byte(valueKey(e.value) >> shift)
			buf[c[d]] = e
			c[d]++
		}
		a, buf = buf, a
	}
	return a, buf
}

// valueRange is a bucket of the dynamic search: the entities sorted[i:j]
// of its rangeIndex (held in first-observation order in bySeq[i:j]), the
// value range [lo, hi) they span (closed at hi for the last bucket), their
// aggregates summed in first-observation order, and the bucket's cost.
// leftPriced and rightPriced report that the search's costL and costR
// slots in (i, j) already hold this range's side costs, inherited from
// the parent it shares a start or an end with.
type valueRange struct {
	i, j                    int
	lo, hi                  float64
	st                      sideStats
	cost                    float64
	leftPriced, rightPriced bool
}

// root is the search's first bucket: the whole root range, its aggregates
// summed in first-observation order.
func (x rangeIndex) root() valueRange {
	b := valueRange{i: 0, j: len(x.sorted), lo: x.lo, hi: x.hi}
	for _, e := range x.bySeq {
		b.st.add(e)
	}
	return b
}

// split cuts b at sorted index k, a boundary between unique values, in one
// O(range) pass: the entities below sorted[k].value move, in
// first-observation order, to the front of bySeq[b.i:b.j] and the rest
// behind them, so each child again owns bySeq[i:j] of its index range, and
// both children's aggregates are summed on the way in first-observation
// order. Their costs are left to the caller. scratch must hold b.j-b.i
// entities.
func (x rangeIndex) split(b valueRange, k int, scratch []rangeEnt) (l, r valueRange) {
	v := x.sorted[k].value
	l = valueRange{i: b.i, j: k, lo: b.lo, hi: v}
	r = valueRange{i: k, j: b.j, lo: v, hi: b.hi}
	ents, right := x.bySeq[b.i:b.j], scratch[:0]
	for _, e := range ents {
		if e.value < v {
			ents[l.st.c] = e
			l.st.add(e)
		} else {
			right = append(right, e)
			r.st.add(e)
		}
	}
	copy(ents[l.st.c:], right)
	return l, r
}

// splitSearch is the state of one index-range run of Algorithm 1 (see
// splitRanges): the range index, the partition scratch, the side cost
// function of the inner estimator, and the side costs of every candidate
// boundary. costL[k] is the cost of sorted[i:k] and costR[k] the cost of
// sorted[k:j] for the range [i, j) that owns boundary k (i < k < j). The
// live ranges partition the sorted positions, so no two of them share a
// slot, and a child range finds its parent's slots still intact.
type splitSearch struct {
	x            rangeIndex
	scratch      []rangeEnt
	cost         func(sideStats) float64
	costL, costR []float64
}

// newSplitSearch indexes s for the search with the Naive inner (Frequency
// with freq); ok is false for an empty sample.
func newSplitSearch(s *freqstats.Sample, freq bool) (p *splitSearch, ok bool) {
	x, scratch, ok := newRangeIndex(s)
	if !ok {
		return nil, false
	}
	n := len(x.sorted)
	costs := make([]float64, 2*n)
	p = &splitSearch{x: x, scratch: scratch, cost: naiveSplitCost, costL: costs[:n:n], costR: costs[n:]}
	if freq {
		p.cost = freqSplitCost
	}
	return p, true
}

// root is the search's first bucket, x.root() with its cost.
func (p *splitSearch) root() valueRange {
	b := p.x.root()
	b.cost = p.cost(b.st)
	return b
}

// priceLeft sets costL[k] for every boundary k of [i, j) to the cost of
// sorted[i:k], summed forward from i in value order.
func (p *splitSearch) priceLeft(i, j int) {
	sorted := p.x.sorted
	var st sideStats
	for k := i + 1; k < j; k++ {
		e := sorted[k-1]
		st.add(e)
		if sorted[k].value != e.value {
			p.costL[k] = p.cost(st)
		}
	}
}

// priceRight sets costR[k] for every boundary k of [i, j) to the cost of
// sorted[k:j], summed backward from j-1 in value order.
func (p *splitSearch) priceRight(i, j int) {
	sorted := p.x.sorted
	var st sideStats
	for k := j - 1; k > i; k-- {
		e := sorted[k]
		st.add(e)
		if sorted[k-1].value != e.value {
			p.costR[k] = p.cost(st)
		}
	}
}

// sweep prices the sides of b's boundaries it does not inherit and
// returns the sorted index of the split value minimizing
// rest + cost(left) + cost(right), if that beats keeping b whole.
func (p *splitSearch) sweep(b valueRange, rest float64) (int, bool) {
	sorted := p.x.sorted
	if b.j-b.i < 2 || sorted[b.i].value == sorted[b.j-1].value {
		return 0, false
	}
	if !b.leftPriced {
		p.priceLeft(b.i, b.j)
	}
	if !b.rightPriced {
		p.priceRight(b.i, b.j)
	}
	deltaMin := rest + b.cost // current total; splits must beat this
	best := 0
	for k := b.i + 1; k < b.j; k++ {
		if sorted[k].value == sorted[k-1].value {
			continue // not a boundary between unique values
		}
		if cand := rest + p.costL[k] + p.costR[k]; deltaMin > cand {
			deltaMin = cand
			best = k
		}
	}
	return best, best > 0
}

// split cuts the swept range b at boundary k and prices both children.
// The left child starts where b does, so b's costL slots below k are its
// left sides; the right child ends where b does and keeps b's costR slots.
// Each child's sweep prices only its other side.
func (p *splitSearch) split(b valueRange, k int) (l, r valueRange) {
	l, r = p.x.split(b, k, p.scratch)
	l.cost, r.cost = p.cost(l.st), p.cost(r.st)
	l.leftPriced, r.rightPriced = true, true
	return l, r
}

// rangeCosts sums the costs of bs in order.
func rangeCosts(bs []valueRange) float64 {
	var t float64
	for _, b := range bs {
		t += b.cost
	}
	return t
}

// splitRanges runs Algorithm 1 for the Naive inner estimator (Frequency
// with freq). The sample is read once into a rangeIndex and every bucket
// is an index range of it, so a split neither re-sorts nor filters: the
// candidate sweep walks the range in value order, and a kept split stably
// partitions the range's first-observation-ordered entities between the
// children, summing both children's aggregates in the same O(range) pass.
// The final buckets are priced on those aggregates; none is materialized.
// The result is bit-identical to the materializing search:
//   - a candidate's left side is summed forward from the range start and
//     its right side backward from the range end, in value order, as that
//     search's sweep summed them. A side cost is a pure function of those
//     sums and of exact integer counts, so a child that inherits its
//     parent's costs for the side it shares reads the same bits it would
//     have computed;
//   - a bucket's own aggregates (which give its estimate, feed rest and
//     set the bar a split must beat) are summed in first-observation
//     order, as EstimateSum of its sub-sample adds them;
//   - the FIFO queue, the done order and the cost summation order are the
//     same.
func splitRanges(s *freqstats.Sample, freq bool) []BucketResult {
	p, ok := newSplitSearch(s, freq)
	if !ok {
		return nil
	}
	todo := []valueRange{p.root()}
	var done []valueRange
	for len(todo) > 0 {
		b := todo[0]
		todo = todo[1:]
		rest := rangeCosts(todo) + rangeCosts(done)
		if k, ok := p.sweep(b, rest); ok {
			l, r := p.split(b, k)
			todo = append(todo, l, r)
		} else {
			done = append(done, b)
		}
	}
	slices.SortFunc(done, func(a, b valueRange) int { return cmp.Compare(a.lo, b.lo) })
	out := make([]BucketResult, len(done))
	for b, r := range done {
		out[b] = BucketResult{
			Lo: r.lo, Hi: r.hi,
			C: r.st.c, N: r.st.n, Sum: r.st.sum,
			Est: statsEstimate(r.st, freq),
			src: s, last: b == len(done)-1,
		}
	}
	return out
}

func uniqueSortedValues(s *freqstats.Sample) []float64 {
	values := s.Values()
	sort.Float64s(values)
	out := values[:0]
	for i, v := range values {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
