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
// value range it covers, the sub-sample of observations falling in it, and
// the inner estimator's estimate for that sub-population.
type BucketResult struct {
	// Lo and Hi delimit the bucket's value range. Lo is inclusive; Hi is
	// exclusive except for the last bucket, which includes its upper edge.
	Lo, Hi float64
	// Sample is the restriction of the input sample to this bucket.
	Sample *freqstats.Sample
	// Est is the inner estimator's result on Sample.
	Est Estimate
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
		cov += bk.Est.Coverage * float64(bk.Sample.N())
	}
	e.CountEstimated = nHat
	if s.N() > 0 {
		e.Coverage = cov / float64(s.N())
	}
	e.LowCoverage = e.Coverage < species.MinReliableCoverage
	return finishEstimate(e, delta)
}

// Buckets runs the strategy and returns the per-bucket breakdown. The
// result is ordered by value range. An empty sample yields nil.
func (b Bucket) Buckets(s *freqstats.Sample) []BucketResult {
	if s.C() == 0 {
		return nil
	}
	return b.strategy().Split(s, b.inner())
}

// BucketStrategy determines bucket boundaries for the bucket estimator.
type BucketStrategy interface {
	Name() string
	// Split partitions s into buckets, estimating each with inner.
	Split(s *freqstats.Sample, inner SumEstimator) []BucketResult
}

// rangeSample restricts s to entities with value in [lo, hi) — or [lo, hi]
// when last is true — and wraps it in a BucketResult. The restriction
// carries per-entity source attribution with it, so a bucket's sub-sample
// reports the exact per-source sizes n_j of its value range: an inner
// Monte-Carlo estimator (or a streaker diagnosis) sees the true per-range
// source profile, including sources concentrated in a single range. Only
// the materializing dynamic search of generic inners filters bucket by
// bucket; every other strategy builds its buckets with rangeBuckets.
func rangeSample(s *freqstats.Sample, inner SumEstimator, lo, hi float64, last bool) BucketResult {
	sub := s.FilterRange(lo, hi, last)
	return BucketResult{Lo: lo, Hi: hi, Sample: sub, Est: inner.EstimateSum(sub)}
}

// rangeBuckets builds the buckets [los[b], los[b+1]), the last one closed
// at hi, in one partition pass over s and estimates each with inner. Each
// bucket's sub-sample is exactly rangeSample's. Empty buckets are dropped
// when dropEmpty is set.
func rangeBuckets(s *freqstats.Sample, inner SumEstimator, los []float64, hi float64, dropEmpty bool) []BucketResult {
	parts := s.PartitionRanges(los, hi)
	out := make([]BucketResult, 0, len(parts))
	for b, sub := range parts {
		if dropEmpty && sub.C() == 0 {
			continue
		}
		bHi := hi
		if b+1 < len(los) {
			bHi = los[b+1]
		}
		out = append(out, BucketResult{Lo: los[b], Hi: bHi, Sample: sub, Est: inner.EstimateSum(sub)})
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
	return rangeBuckets(s, inner, los, lo+(hi-lo)*float64(k)/float64(k), true)
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
	return rangeBuckets(s, inner, edges[:len(edges)-1], edges[len(edges)-1], true)
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
// ranges of one value-sorted entity array (see splitRanges) and only the
// final buckets are materialized, in one partition pass; any other inner
// estimator is searched by materializing every candidate sub-sample. Both
// give the same buckets. The root bucket spans [min, max] of the values
// with stats.Min/Max semantics, so NaN-valued entities fall in no bucket.
type Dynamic struct{}

// Name implements BucketStrategy.
func (Dynamic) Name() string { return "dynamic" }

// Split implements BucketStrategy.
func (Dynamic) Split(s *freqstats.Sample, inner SumEstimator) []BucketResult {
	switch inner.(type) {
	case Naive:
		return splitRanges(s, inner, naiveSplitCost)
	case Frequency:
		return splitRanges(s, inner, freqSplitCost)
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
// provided it strictly improves on keeping b whole. It materializes two
// filtered samples per candidate, which works for any inner estimator;
// splitRanges is the fast path for the inners it can price on aggregates.
func bestSplit(b BucketResult, inner SumEstimator, rest float64) ([2]BucketResult, bool) {
	uniq := uniqueSortedValues(b.Sample)
	if len(uniq) < 2 {
		return [2]BucketResult{}, false
	}
	deltaMin := rest + splitCost(b) // current total; splits must beat this
	var best [2]BucketResult
	found := false
	for _, v := range uniq[1:] { // splitting below the minimum is a no-op
		t1 := rangeSample(b.Sample, inner, b.Lo, v, false)
		t2 := rangeSample(b.Sample, inner, v, b.Hi, true)
		if t1.Sample.C() == 0 || t2.Sample.C() == 0 {
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

// sideStats are the aggregates one side of a candidate split needs to
// reproduce Naive{}.EstimateSum and Frequency{}.EstimateSum exactly:
// Chao92 reads only n, c, f1 and sum_j j(j-1) f_j; mean substitution
// additionally reads sum(values), and singleton-mean substitution reads
// the sum of values over singletons.
type sideStats struct {
	n, c, f1 int
	s2       int     // sum over entities of count*(count-1) == sum_j j(j-1) f_j
	sum      float64 // sum of values over all entities
	f1sum    float64 // sum of values over the singleton entities (phi_f1)
}

// add folds entity e into the side's counts and value sums.
func (st *sideStats) add(e rangeEnt) {
	st.n += e.count
	st.c++
	st.s2 += e.count * (e.count - 1)
	st.sum += e.value
	if e.count == 1 {
		st.f1++
		st.f1sum += e.value
	}
}

// chao92FromStats replays species.Chao92's count estimate on aggregates.
// ok is false when the side is degenerate: empty (cost 0) or pure
// singletons (diverged, cost Inf); the caller maps that via divergedCost.
func chao92FromStats(st sideStats) (nHat, divergedCost float64, ok bool) {
	n, c := st.n, st.c
	if n == 0 || c == 0 {
		return 0, 0, false // invalid estimate: Delta stays 0, mirroring EstimateSum
	}
	cov := 1 - float64(st.f1)/float64(n)
	if cov <= 0 {
		return 0, math.Inf(1), false // diverged: pure singletons
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
	return nHat, 0, true
}

// naiveSplitCost replays the Naive-inner splitCost on aggregates: Inf for
// a diverged (pure-singleton) side, |Delta| otherwise. The formulas mirror
// species.Chao92 and Naive.EstimateSum term by term, so the cost equals
// splitCost of the materialized bucket bit for bit whenever st.sum and
// st.f1sum were added in the bucket's first-observation order — which is
// how splitRanges prices a bucket it keeps. A split candidate's sides are
// summed in value order instead, as the sweep walks them; on non-integer
// data that can differ from the materialized cost in the last bits, which
// only matters for exact cost ties.
func naiveSplitCost(st sideStats) float64 {
	nHat, cost, ok := chao92FromStats(st)
	if !ok {
		return cost
	}
	delta := st.sum / float64(st.c) * (nHat - float64(st.c))
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return math.Inf(1) // finishEstimate flags this Diverged
	}
	return math.Abs(delta)
}

// freqSplitCost replays the Frequency-inner splitCost on aggregates,
// mirroring Frequency.EstimateSum: singleton-mean substitution
// phi_f1/f1 * (N-hat - c), with Delta 0 when the side has no singletons
// (the sample looks complete to the frequency estimator) and Inf when it
// is all singletons (diverged). Summation order matters as for
// naiveSplitCost.
func freqSplitCost(st sideStats) float64 {
	nHat, cost, ok := chao92FromStats(st)
	if !ok {
		return cost
	}
	if st.f1 == 0 {
		return 0
	}
	delta := st.f1sum / float64(st.f1) * (nHat - float64(st.c))
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return math.Inf(1)
	}
	return math.Abs(delta)
}

// rangeEnt is one entity of the dynamic search's columnar array: its value,
// occurrence count and first-observation index.
type rangeEnt struct {
	value float64
	count int
	seq   int
}

// rangeIndex is the dynamic search's columnar view of a sample: the
// entities with value in the root range [lo, hi], sorted by (value,
// first-observation index), and the inverse map from first-observation
// index to sorted index (-1 for an entity in no bucket). The root range
// follows stats.Min/Max: NaN values are skipped, unless the first value is
// NaN, which makes the root range (and so every bucket) empty.
type rangeIndex struct {
	sorted []rangeEnt
	pos    []int
	lo, hi float64
}

// newRangeIndex reads s once into a rangeIndex; ok is false for an empty
// sample.
func newRangeIndex(s *freqstats.Sample) (x rangeIndex, ok bool) {
	ents := make([]rangeEnt, 0, s.C())
	s.EachEntity(func(v float64, count int) {
		ents = append(ents, rangeEnt{value: v, count: count, seq: len(ents)})
	})
	if len(ents) == 0 {
		return x, false
	}
	x.lo, x.hi = ents[0].value, ents[0].value
	for _, e := range ents[1:] {
		if e.value < x.lo {
			x.lo = e.value
		}
		if e.value > x.hi {
			x.hi = e.value
		}
	}
	x.sorted = make([]rangeEnt, 0, len(ents))
	for _, e := range ents {
		if e.value >= x.lo && e.value <= x.hi {
			x.sorted = append(x.sorted, e)
		}
	}
	slices.SortFunc(x.sorted, func(a, b rangeEnt) int {
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	x.pos = make([]int, len(ents))
	for k := range x.pos {
		x.pos[k] = -1
	}
	for k, e := range x.sorted {
		x.pos[e.seq] = k
	}
	return x, true
}

// seqStats returns the aggregates of the bucket sorted[i:j] with its value
// sums added in first-observation order — the order EstimateSum of the
// bucket's sub-sample adds them in, so pricing them gives the bucket's
// splitCost bit for bit.
func (x rangeIndex) seqStats(i, j int) sideStats {
	var st sideStats
	for _, k := range x.pos {
		if k >= i && k < j {
			st.add(x.sorted[k])
		}
	}
	return st
}

// valueRange is a bucket of the dynamic search: the entities sorted[i:j]
// of its rangeIndex, the value range [lo, hi) they span (closed at hi for
// the last bucket), and the bucket's cost.
type valueRange struct {
	i, j   int
	lo, hi float64
	cost   float64
}

// splitRanges runs Algorithm 1 for an inner estimator priced by cost
// (naiveSplitCost or freqSplitCost). The sample is read once into a
// rangeIndex and every bucket is an index range of it, so a split neither
// re-sorts nor filters: the candidate sweep walks the range, and only the
// final buckets are materialized, in one partition pass. The result is
// bit-identical to the materializing search:
//   - a candidate's sides are summed in value order, left sums forward and
//     right sums as suffix sums, exactly as that search's sweep did;
//   - a bucket's own cost (which feeds rest and the bar a split must beat)
//     comes from seqStats;
//   - the FIFO queue, the done order and the cost summation order are the
//     same.
func splitRanges(s *freqstats.Sample, inner SumEstimator, cost func(sideStats) float64) []BucketResult {
	x, ok := newRangeIndex(s)
	if !ok {
		return nil
	}
	sorted := x.sorted
	rangeCost := func(i, j int) float64 { return cost(x.seqStats(i, j)) }
	totalCost := func(bs []valueRange) float64 {
		var t float64
		for _, b := range bs {
			t += b.cost
		}
		return t
	}
	sufSum := make([]float64, len(sorted)+1)
	sufF1Sum := make([]float64, len(sorted)+1)
	// sweep returns the sorted index of the split value minimizing
	// rest + cost(left) + cost(right), if that beats keeping b whole.
	sweep := func(b valueRange, rest float64) (int, bool) {
		ents := sorted[b.i:b.j]
		if len(ents) < 2 || ents[0].value == ents[len(ents)-1].value {
			return 0, false
		}
		sufSum[len(ents)], sufF1Sum[len(ents)] = 0, 0
		var left, right sideStats
		for k := len(ents) - 1; k >= 0; k-- {
			right.add(ents[k])
			sufSum[k], sufF1Sum[k] = right.sum, right.f1sum
		}
		deltaMin := rest + b.cost // current total; splits must beat this
		best := 0
		for k := 1; k < len(ents); k++ {
			e := ents[k-1]
			left.add(e)
			right.n -= e.count
			right.c--
			right.s2 -= e.count * (e.count - 1)
			if e.count == 1 {
				right.f1--
			}
			right.sum, right.f1sum = sufSum[k], sufF1Sum[k]
			if ents[k].value == e.value {
				continue // not a boundary between unique values
			}
			if cand := rest + cost(left) + cost(right); deltaMin > cand {
				deltaMin = cand
				best = b.i + k
			}
		}
		return best, best > 0
	}

	todo := []valueRange{{i: 0, j: len(sorted), lo: x.lo, hi: x.hi, cost: rangeCost(0, len(sorted))}}
	var done []valueRange
	for len(todo) > 0 {
		b := todo[0]
		todo = todo[1:]
		rest := totalCost(todo) + totalCost(done)
		if k, ok := sweep(b, rest); ok {
			v := sorted[k].value
			todo = append(todo,
				valueRange{i: b.i, j: k, lo: b.lo, hi: v, cost: rangeCost(b.i, k)},
				valueRange{i: k, j: b.j, lo: v, hi: b.hi, cost: rangeCost(k, b.j)})
		} else {
			done = append(done, b)
		}
	}
	slices.SortFunc(done, func(a, b valueRange) int { return cmp.Compare(a.lo, b.lo) })
	los := make([]float64, len(done))
	for b, r := range done {
		los[b] = r.lo
	}
	return rangeBuckets(s, inner, los, done[len(done)-1].hi, false)
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
