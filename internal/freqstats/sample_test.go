package freqstats

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func obs(id string, v float64, src string) Observation {
	return Observation{EntityID: id, Value: v, Source: src}
}

func TestEmptySample(t *testing.T) {
	var s Sample // zero value must be usable
	if s.N() != 0 || s.C() != 0 || s.F1() != 0 {
		t.Errorf("zero sample: n=%d c=%d f1=%d", s.N(), s.C(), s.F1())
	}
	if s.SumValues() != 0 || s.SumSingletonValues() != 0 {
		t.Error("zero sample sums not zero")
	}
	if got := s.Count("x"); got != 0 {
		t.Errorf("Count on empty = %d", got)
	}
	if _, ok := s.Value("x"); ok {
		t.Error("Value on empty reported ok")
	}
	if err := s.Add(obs("a", 1, "s1")); err != nil {
		t.Fatalf("Add on zero value: %v", err)
	}
	if s.N() != 1 || s.C() != 1 {
		t.Error("zero-value sample did not accept Add")
	}
}

func TestAddMaintainsStatistics(t *testing.T) {
	s := NewSample()
	// Toy example from the paper's Appendix F (before s5): A seen twice,
	// B seen once... we use: A x2, B x1, D x4 => n=7, c=3, f1=1, f2=1, f4=1.
	seq := []Observation{
		obs("A", 1000, "s1"), obs("B", 2000, "s1"), obs("D", 10000, "s1"),
		obs("A", 1000, "s2"), obs("D", 10000, "s2"),
		obs("D", 10000, "s3"),
		obs("D", 10000, "s4"),
	}
	if err := s.AddAll(seq); err != nil {
		t.Fatal(err)
	}
	if s.N() != 7 {
		t.Errorf("n = %d, want 7", s.N())
	}
	if s.C() != 3 {
		t.Errorf("c = %d, want 3", s.C())
	}
	if s.F1() != 1 || s.F2() != 1 || s.F(4) != 1 || s.F(3) != 0 {
		t.Errorf("f-stats: f1=%d f2=%d f3=%d f4=%d", s.F1(), s.F2(), s.F(3), s.F(4))
	}
	if got := s.SumValues(); got != 13000 {
		t.Errorf("phi_K = %g, want 13000", got)
	}
	if got := s.SumSingletonValues(); got != 2000 {
		t.Errorf("phi_f1 = %g, want 2000 (B is the only singleton)", got)
	}
	if got := s.Count("D"); got != 4 {
		t.Errorf("Count(D) = %d, want 4", got)
	}
	if v, ok := s.Value("A"); !ok || v != 1000 {
		t.Errorf("Value(A) = %g, %v", v, ok)
	}
	if s.NumSources() != 4 {
		t.Errorf("sources = %d, want 4", s.NumSources())
	}
	sizes := s.SourceSizes()
	want := []int{3, 2, 1, 1}
	if len(sizes) != 4 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] || sizes[3] != want[3] {
		t.Errorf("source sizes = %v, want %v", sizes, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddRejectsEmptyID(t *testing.T) {
	s := NewSample()
	if err := s.Add(obs("", 1, "s")); err == nil {
		t.Error("empty entity ID not reported")
	}
}

func TestAddReportsConflictingValues(t *testing.T) {
	s := NewSample()
	if err := s.Add(obs("a", 1, "s1")); err != nil {
		t.Fatal(err)
	}
	err := s.Add(obs("a", 2, "s2"))
	if err == nil {
		t.Fatal("conflicting value not reported")
	}
	// The observation still counts, with the first value kept.
	if s.N() != 2 || s.Count("a") != 2 {
		t.Errorf("after conflict: n=%d count=%d", s.N(), s.Count("a"))
	}
	if v, _ := s.Value("a"); v != 1 {
		t.Errorf("value after conflict = %g, want first value 1", v)
	}
}

func TestEntitiesAndValuesOrder(t *testing.T) {
	s := NewSample()
	must(t, s.AddAll([]Observation{
		obs("b", 2, "s"), obs("a", 1, "s"), obs("b", 2, "s"), obs("c", 3, "s"),
	}))
	ids := s.Entities()
	want := []string{"b", "a", "c"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("entities = %v, want %v", ids, want)
		}
	}
	vals := s.Values()
	wantV := []float64{2, 1, 3}
	for i := range wantV {
		if vals[i] != wantV[i] {
			t.Fatalf("values = %v, want %v", vals, wantV)
		}
	}
	// Returned slices are copies.
	ids[0] = "mutated"
	if s.Entities()[0] != "b" {
		t.Error("Entities exposed internal state")
	}
}

func TestOccurrenceCountsDescending(t *testing.T) {
	s := NewSample()
	must(t, s.AddAll([]Observation{
		obs("a", 1, "s"), obs("a", 1, "s"), obs("a", 1, "s"),
		obs("b", 2, "s"),
		obs("c", 3, "s"), obs("c", 3, "s"),
	}))
	got := s.OccurrenceCounts()
	want := []int{3, 2, 1}
	if len(got) != 3 {
		t.Fatalf("counts = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
}

func TestClone(t *testing.T) {
	s := NewSample()
	must(t, s.AddAll([]Observation{obs("a", 1, "s1"), obs("b", 2, "s2")}))
	c := s.Clone()
	must(t, c.Add(obs("c", 3, "s3")))
	if s.C() != 2 || c.C() != 3 {
		t.Errorf("clone not independent: orig c=%d clone c=%d", s.C(), c.C())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFilter(t *testing.T) {
	s := NewSample()
	must(t, s.AddAll([]Observation{
		obs("small1", 10, "s1"), obs("small2", 20, "s1"),
		obs("big", 1000, "s1"), obs("big", 1000, "s2"),
		obs("small1", 10, "s2"),
		obs("big", 1000, "s3"), // s3 reports only the filtered-out entity
	}))
	f := s.Filter(func(id string, v float64) bool { return v < 100 })
	if f.C() != 2 {
		t.Errorf("filtered c = %d, want 2", f.C())
	}
	if f.N() != 3 {
		t.Errorf("filtered n = %d, want 3 (small1 x2, small2 x1)", f.N())
	}
	if f.F1() != 1 || f.F2() != 1 {
		t.Errorf("filtered f1=%d f2=%d", f.F1(), f.F2())
	}
	if got := f.SumValues(); got != 30 {
		t.Errorf("filtered sum = %g, want 30", got)
	}
	// Per-source sizes are exact for the kept sub-population: s1 kept
	// small1+small2, s2 kept small1, and s3 — which reported only the
	// filtered-out entity — vanishes entirely.
	want := map[string]int{"s1": 2, "s2": 1}
	got := f.SourceContributions()
	if len(got) != len(want) || got["s1"] != want["s1"] || got["s2"] != want["s2"] {
		t.Errorf("filtered source contributions = %v, want %v", got, want)
	}
	if f.NumSources() != 2 {
		t.Errorf("filtered NumSources = %d, want 2", f.NumSources())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Original untouched.
	if s.C() != 3 || s.N() != 6 {
		t.Error("Filter mutated the source sample")
	}
}

// Property: Filter produces bitwise-exact per-source sizes — identical to
// rebuilding a sample from only the kept raw observations.
func TestFilterExactSourceSizesProperty(t *testing.T) {
	f := func(ids []uint8, threshold uint8) bool {
		var raw []Observation
		s := NewSample()
		for i, r := range ids {
			o := obs(fmt.Sprintf("e%d", r%16), float64(r%16)*10, fmt.Sprintf("s%d", i%7))
			raw = append(raw, o)
			_ = s.Add(o)
		}
		cut := float64(threshold%16) * 10
		keep := func(_ string, v float64) bool { return v < cut }
		filtered := s.Filter(keep)
		rebuilt := NewSample()
		for _, o := range raw {
			if keep(o.EntityID, o.Value) {
				_ = rebuilt.Add(o)
			}
		}
		if filtered.N() != rebuilt.N() || filtered.C() != rebuilt.C() {
			return false
		}
		a, b := filtered.SourceContributions(), rebuilt.SourceContributions()
		if len(a) != len(b) {
			return false
		}
		for name, nj := range a {
			if b[name] != nj {
				return false
			}
		}
		return filtered.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEntitySourceCounts(t *testing.T) {
	s := NewSample()
	must(t, s.AddAll([]Observation{
		obs("a", 1, "s1"), obs("a", 1, "s2"), obs("a", 1, "s1"),
		obs("b", 2, "s2"),
	}))
	got := s.EntitySourceCounts("a")
	if len(got) != 2 || got["s1"] != 2 || got["s2"] != 1 {
		t.Errorf("EntitySourceCounts(a) = %v, want s1:2 s2:1", got)
	}
	if s.EntitySourceCounts("nope") != nil {
		t.Error("EntitySourceCounts on unknown entity should be nil")
	}
	// The returned map is a copy.
	got["s1"] = 99
	if s.EntitySourceCounts("a")["s1"] != 2 {
		t.Error("EntitySourceCounts exposed internal state")
	}
}

func TestAddEntityObservationsBulk(t *testing.T) {
	incr := NewSample()
	must(t, incr.AddAll([]Observation{
		obs("a", 1, "s1"), obs("a", 1, "s2"), obs("b", 2, "s2"), obs("a", 1, "s1"),
	}))

	bulk := NewSample()
	s1, s2 := bulk.InternSource("s1"), bulk.InternSource("s2")
	must(t, bulk.AddEntityObservations("a", 1, []int32{s1, s2, s1}))
	must(t, bulk.AddEntityObservations("b", 2, []int32{s2}))

	if bulk.N() != incr.N() || bulk.C() != incr.C() {
		t.Fatalf("bulk n=%d c=%d, incremental n=%d c=%d", bulk.N(), bulk.C(), incr.N(), incr.C())
	}
	bs, is := bulk.SourceSizes(), incr.SourceSizes()
	if len(bs) != len(is) || bs[0] != is[0] || bs[1] != is[1] {
		t.Errorf("bulk source sizes %v != incremental %v", bs, is)
	}
	ba, ia := bulk.EntitySourceCounts("a"), incr.EntitySourceCounts("a")
	if len(ba) != len(ia) || ba["s1"] != ia["s1"] || ba["s2"] != ia["s2"] {
		t.Errorf("bulk attribution %v != incremental %v", ba, ia)
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddEntityObservationsRejectsBadInput(t *testing.T) {
	s := NewSample()
	src := s.InternSource("s1")
	if err := s.AddEntityObservations("", 1, []int32{src}); err == nil {
		t.Error("empty entity ID not reported")
	}
	if err := s.AddEntityObservations("a", 1, nil); err == nil {
		t.Error("empty source list not reported")
	}
	if err := s.AddEntityObservations("a", 1, []int32{42}); err == nil {
		t.Error("unknown source ID not reported")
	}
	if s.N() != 0 || s.C() != 0 {
		t.Errorf("failed adds mutated the sample: n=%d c=%d", s.N(), s.C())
	}
}

func TestCheckInvariantsCatchesAttributionDrift(t *testing.T) {
	s := NewSample()
	must(t, s.Add(obs("a", 1, "s1")))
	s.srcTotals[0]++ // corrupt: n_j no longer matches the attribution
	if err := s.CheckInvariants(); err == nil {
		t.Error("source-total drift not detected")
	}
	s.srcTotals[0] -= 2 // corrupt the other way: sum n_j != n
	if err := s.CheckInvariants(); err == nil {
		t.Error("sum n_j != n not detected")
	}
}

func TestFStatisticsCopy(t *testing.T) {
	s := NewSample()
	must(t, s.Add(obs("a", 1, "s")))
	f := s.FStatistics()
	f[1] = 99
	if s.F1() != 1 {
		t.Error("FStatistics exposed internal map")
	}
}

// Property: after any sequence of observations, sum_j j*f_j == n and
// sum_j f_j == c.
func TestInvariantsProperty(t *testing.T) {
	f := func(ids []uint8, seed int64) bool {
		s := NewSample()
		rng := rand.New(rand.NewSource(seed))
		for _, raw := range ids {
			id := fmt.Sprintf("e%d", raw%32)
			src := fmt.Sprintf("s%d", rng.Intn(5))
			// Values derived from the id so there are never conflicts.
			_ = s.Add(obs(id, float64(raw%32)*10, src))
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: singleton sum is always a sub-sum of the total.
func TestSingletonSumProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		s := NewSample()
		for _, raw := range ids {
			id := fmt.Sprintf("e%d", raw%16)
			_ = s.Add(obs(id, float64(raw%16)+1, "s"))
		}
		return s.SumSingletonValues() <= s.SumValues()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	a := NewSample()
	must(t, a.AddAll([]Observation{
		obs("x", 1, "s1"), obs("y", 2, "s1"), obs("x", 1, "s2"),
	}))
	b := NewSample()
	must(t, b.AddAll([]Observation{
		obs("x", 1, "s3"), obs("z", 3, "s3"),
	}))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 || a.C() != 3 {
		t.Errorf("merged: n=%d c=%d", a.N(), a.C())
	}
	if a.Count("x") != 3 {
		t.Errorf("Count(x) = %d, want 3", a.Count("x"))
	}
	if a.F1() != 2 || a.F(3) != 1 {
		t.Errorf("f-stats after merge: f1=%d f3=%d", a.F1(), a.F(3))
	}
	contrib := a.SourceContributions()
	if contrib["s1"] != 2 || contrib["s2"] != 1 || contrib["s3"] != 2 {
		t.Errorf("merged source contributions = %v, want s1:2 s2:1 s3:2", contrib)
	}
	ax := a.EntitySourceCounts("x")
	if len(ax) != 3 || ax["s1"] != 1 || ax["s2"] != 1 || ax["s3"] != 1 {
		t.Errorf("merged attribution of x = %v", ax)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// b untouched.
	if b.N() != 2 || b.C() != 2 {
		t.Errorf("source sample mutated: n=%d c=%d", b.N(), b.C())
	}
}

// Merge with a shared source name: per-entity counts from both sides add
// up, because Merge cannot know whether two shards saw the same mention.
func TestMergeSharedSourceAddsCounts(t *testing.T) {
	a := NewSample()
	must(t, a.Add(obs("x", 1, "s1")))
	b := NewSample()
	must(t, b.Add(obs("x", 1, "s1")))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.EntitySourceCounts("x"); got["s1"] != 2 {
		t.Errorf("attribution of x after shared-source merge = %v, want s1:2", got)
	}
	if sizes := a.SourceSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Errorf("source sizes = %v, want [2]", a.SourceSizes())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMergeConflict(t *testing.T) {
	a := NewSample()
	must(t, a.Add(obs("x", 1, "s1")))
	b := NewSample()
	must(t, b.Add(obs("x", 99, "s2")))
	err := a.Merge(b)
	if err == nil {
		t.Fatal("conflict not reported")
	}
	// Observation still counted with the first value.
	if a.Count("x") != 2 {
		t.Errorf("Count(x) = %d", a.Count("x"))
	}
	if v, _ := a.Value("x"); v != 1 {
		t.Errorf("value = %g", v)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMergeIntoZeroValue(t *testing.T) {
	var a Sample
	b := NewSample()
	must(t, b.Add(obs("x", 1, "s")))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 1 || a.C() != 1 {
		t.Errorf("n=%d c=%d", a.N(), a.C())
	}
}

// Property: merging shards source-by-source equals building one sample.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		whole := NewSample()
		shards := [3]*Sample{NewSample(), NewSample(), NewSample()}
		for i, raw := range ids {
			o := obs(fmt.Sprintf("e%d", raw%16), float64(raw%16), fmt.Sprintf("s%d", i%6))
			_ = whole.Add(o)
			_ = shards[(i%6)%3].Add(o) // shard by source: s0,s3 -> 0; s1,s4 -> 1; ...
		}
		merged := NewSample()
		for _, sh := range shards {
			if err := merged.Merge(sh); err != nil {
				return false
			}
		}
		if merged.N() != whole.N() || merged.C() != whole.C() {
			return false
		}
		for j, fj := range whole.FStatistics() {
			if merged.F(j) != fj {
				return false
			}
		}
		return merged.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func rangeTestSample(t *testing.T) *Sample {
	t.Helper()
	s := NewSample()
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("e%02d", i)
		for j := 0; j <= i%3; j++ {
			if err := s.Add(obs(id, float64(i), fmt.Sprintf("s%d", j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestFilterRangeMatchesFilter: FilterRange is exactly Filter with the
// range predicate, at both edge conventions.
func TestFilterRangeMatchesFilter(t *testing.T) {
	s := rangeTestSample(t)
	for _, inclusive := range []bool{false, true} {
		sub := s.FilterRange(10, 20, inclusive)
		want := s.Filter(func(_ string, v float64) bool {
			if inclusive {
				return v >= 10 && v <= 20
			}
			return v >= 10 && v < 20
		})
		if sub.Fingerprint() != want.Fingerprint() {
			t.Errorf("inclusive=%v: FilterRange fingerprint differs from Filter", inclusive)
		}
		wantC := 10
		if inclusive {
			wantC = 11
		}
		if sub.C() != wantC {
			t.Errorf("inclusive=%v: c=%d, want %d", inclusive, sub.C(), wantC)
		}
	}
}

// TestAddNewEntityObservationsParity: the insert-only bulk path must
// produce a sample bitwise-equivalent to the general path for fresh
// entities, and must detect a violated uniqueness guarantee.
func TestAddNewEntityObservationsParity(t *testing.T) {
	general, fast := NewSample(), NewSample()
	for _, s := range []*Sample{general, fast} {
		s.InternSource("s0")
		s.InternSource("s1")
	}
	rows := []struct {
		id   string
		v    float64
		srcs []int32
	}{
		{"a", 1, []int32{0}},
		{"b", 2, []int32{0, 1}},
		{"c", 3, []int32{1, 1, 0}},
	}
	for _, r := range rows {
		if err := general.AddEntityObservations(r.id, r.v, r.srcs); err != nil {
			t.Fatal(err)
		}
		if err := fast.AddNewEntityObservations(r.id, r.v, r.srcs); err != nil {
			t.Fatal(err)
		}
	}
	if err := fast.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if general.Fingerprint() != fast.Fingerprint() {
		t.Error("fast-path sample fingerprint differs from the general path")
	}
	if general.N() != fast.N() || general.C() != fast.C() || general.F1() != fast.F1() {
		t.Errorf("stats differ: n=%d/%d c=%d/%d f1=%d/%d",
			general.N(), fast.N(), general.C(), fast.C(), general.F1(), fast.F1())
	}
	if err := fast.AddNewEntityObservations("a", 1, []int32{0}); err == nil {
		t.Error("duplicate entity on the insert-only path was not detected")
	}
}

// TestSumSingletonValuesDeterministic: the singleton sum adds in
// first-observation order, so a sum whose rounding depends on the order
// comes out with the same bits on every call.
func TestSumSingletonValuesDeterministic(t *testing.T) {
	s := NewSample()
	values := []float64{1e16, 1, -1e16, 0.1}
	for i, v := range values {
		must(t, s.Add(obs(fmt.Sprintf("e%d", i), v, "s1")))
	}
	must(t, s.Add(obs("dup", 7, "s1")))
	must(t, s.Add(obs("dup", 7, "s2")))
	var want float64
	for _, v := range values {
		want += v
	}
	for i := 0; i < 100; i++ {
		if got := s.SumSingletonValues(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: SumSingletonValues = %v, want the first-observation-order sum %v", i, got, want)
		}
	}
}

// assertSameSample requires got to be the very sample want is: same
// content, same entity order, same attribution, same source interning.
func assertSameSample(t *testing.T, label string, got, want *Sample) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("%s: fingerprint differs", label)
	}
	if !slices.Equal(got.Entities(), want.Entities()) {
		t.Errorf("%s: entities %v, want %v", label, got.Entities(), want.Entities())
	}
	if !slices.Equal(got.srcNames, want.srcNames) {
		t.Errorf("%s: interned sources %v, want %v", label, got.srcNames, want.srcNames)
	}
	if !maps.Equal(got.SourceContributions(), want.SourceContributions()) {
		t.Errorf("%s: source contributions %v, want %v", label, got.SourceContributions(), want.SourceContributions())
	}
	if !maps.Equal(got.FStatistics(), want.FStatistics()) {
		t.Errorf("%s: f-statistics %v, want %v", label, got.FStatistics(), want.FStatistics())
	}
}

// checkPartition requires every part of PartitionRanges(los, hi) to equal
// the FilterRange of its range.
func checkPartition(t *testing.T, s *Sample, los []float64, hi float64) {
	t.Helper()
	parts := s.PartitionRanges(los, hi)
	if len(parts) != len(los) {
		t.Fatalf("los %v: %d parts, want %d", los, len(parts), len(los))
	}
	for b, lo := range los {
		last := b+1 == len(los)
		bHi := hi
		if !last {
			bHi = los[b+1]
		}
		label := fmt.Sprintf("los %v hi %g part %d", los, hi, b)
		assertSameSample(t, label, parts[b], s.FilterRange(lo, bHi, last))
	}
}

// partitionTestSample mixes repeated values, several sources per entity
// (sources first used in different orders) and one NaN-valued entity.
func partitionTestSample(t *testing.T) *Sample {
	t.Helper()
	s := NewSample()
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("e%02d", i)
		v := float64(i%20) * 1.5
		if i == 8 { // observed once: NaN != NaN, so a re-add would conflict
			v = math.NaN()
		}
		for j := 0; j <= i%4; j++ {
			must(t, s.Add(obs(id, v, fmt.Sprintf("s%d", (i+j)%5))))
		}
	}
	return s
}

func TestPartitionRangesMatchesFilterRange(t *testing.T) {
	s := partitionTestSample(t)
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		los  []float64
		hi   float64
	}{
		{"single part", []float64{0}, 28.5},
		{"equi-width", []float64{0, 7.125, 14.25, 21.375}, 28.5},
		{"bounds between values", []float64{0.5, 3.1, 20}, 28},
		{"empty parts", []float64{0, 0.1, 0.2, 27, 27.5}, 28.5},
		{"equal consecutive bounds", []float64{0, 4.5, 4.5, 4.5, 12}, 28.5},
		{"below and above the data", []float64{-10, 5}, 100},
		{"empty last part", []float64{0, 30}, 40},
		{"leading NaN bound", []float64{nan, 3, 9}, 28.5},
		{"inner NaN bound", []float64{0, nan, 9, 15}, 28.5},
		{"NaN upper edge", []float64{0, 9}, nan},
		{"infinite edges", []float64{math.Inf(-1), 3, math.Inf(1)}, math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkPartition(t, s, tc.los, tc.hi)
		})
	}
	// Random non-decreasing bounds drawn from the data's own values and
	// from between them, so ties with both edges are common.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		los := make([]float64, 1+rng.Intn(8))
		for i := range los {
			los[i] = float64(rng.Intn(40)) * 0.75
		}
		slices.Sort(los)
		checkPartition(t, s, los, los[len(los)-1]+float64(rng.Intn(20))*0.75)
	}
}

// TestPartitionRangesDropsNaNValues: a NaN-valued entity falls in no part,
// and the parts together hold every other entity exactly once.
func TestPartitionRangesDropsNaNValues(t *testing.T) {
	s := partitionTestSample(t)
	parts := s.PartitionRanges([]float64{0, 10, 20}, 28.5)
	var c, n int
	for _, p := range parts {
		c += p.C()
		n += p.N()
		if _, ok := p.Value("e08"); ok {
			t.Error("NaN-valued entity landed in a part")
		}
	}
	if c != s.C()-1 || n != s.N()-s.Count("e08") {
		t.Errorf("parts hold c=%d n=%d, want c=%d n=%d", c, n, s.C()-1, s.N()-s.Count("e08"))
	}
}

// indexTestObs is the observation multiset the index-consistency test
// builds through every constructor: five entities seen one to three times
// by four sources, first-observation order a, b, c, d, e.
func indexTestObs() []Observation {
	return []Observation{
		obs("a", 10, "s1"), obs("b", 20, "s2"), obs("a", 10, "s2"),
		obs("c", 30, "s3"), obs("d", 40, "s1"), obs("b", 20, "s2"),
		obs("e", 50, "s4"), obs("a", 10, "s3"), obs("d", 40, "s4"),
	}
}

// addReversed builds the reference sample for a case: Add of the given
// observations in reverse order, so its entity order differs from the
// case's and only the order-independent content must agree.
func addReversed(t *testing.T, in []Observation) *Sample {
	t.Helper()
	s := NewSample()
	for i := len(in) - 1; i >= 0; i-- {
		must(t, s.Add(in[i]))
	}
	return s
}

// keepObs returns the observations whose value keep accepts.
func keepObs(in []Observation, keep func(v float64) bool) []Observation {
	var out []Observation
	for _, o := range in {
		if keep(o.Value) {
			out = append(out, o)
		}
	}
	return out
}

// groupObs returns the entities of in, in first-observation order, each
// with its value and the sources of its observations.
func groupObs(in []Observation) (ids []string, values map[string]float64, srcs map[string][]string) {
	values, srcs = map[string]float64{}, map[string][]string{}
	for _, o := range in {
		if _, ok := values[o.EntityID]; !ok {
			ids = append(ids, o.EntityID)
			values[o.EntityID] = o.Value
		}
		srcs[o.EntityID] = append(srcs[o.EntityID], o.Source)
	}
	return ids, values, srcs
}

// internAll interns names in s and returns their IDs.
func internAll(s *Sample, names []string) []int32 {
	ids := make([]int32, len(names))
	for i, name := range names {
		ids[i] = s.InternSource(name)
	}
	return ids
}

// TestIndexConsistencyAcrossConstructors: every way of building a sample
// leaves the entity index, the ID order and the records aligned
// (CheckInvariants), answers Count, Value and EntitySourceCounts for
// present and absent IDs as an Add-built sample of the same observations
// does, and fingerprints equal to that sample although it was built in
// another order.
func TestIndexConsistencyAcrossConstructors(t *testing.T) {
	all := indexTestObs()
	full := NewSample()
	must(t, full.AddAll(all))
	type built struct {
		s    *Sample
		want []Observation // the observations s must hold
	}
	below35 := func(v float64) bool { return v < 35 }
	cases := map[string]func(t *testing.T) []built{
		"Add": func(t *testing.T) []built {
			return []built{{full, all}}
		},
		"AddEntityObservations": func(t *testing.T) []built {
			// Each entity's observations go in two calls, so known
			// entities are extended too.
			s := NewSample()
			ids, values, srcs := groupObs(all)
			for _, id := range ids {
				must(t, s.AddEntityObservations(id, values[id], internAll(s, srcs[id][:1])))
			}
			for _, id := range ids {
				if rest := srcs[id][1:]; len(rest) > 0 {
					must(t, s.AddEntityObservations(id, values[id], internAll(s, rest)))
				}
			}
			return []built{{s, all}}
		},
		"AddNewEntityObservations": func(t *testing.T) []built {
			s := NewSample()
			ids, values, srcs := groupObs(all)
			for _, id := range ids {
				must(t, s.AddNewEntityObservations(id, values[id], internAll(s, srcs[id])))
			}
			// The duplicate is refused before anything changes.
			if err := s.AddNewEntityObservations("c", 99, internAll(s, []string{"s1"})); err == nil {
				t.Fatal("AddNewEntityObservations accepted a known entity")
			}
			return []built{{s, all}}
		},
		"Merge": func(t *testing.T) []built {
			var a, b Sample
			for i, o := range all {
				must(t, []*Sample{&a, &b}[i%2].Add(o))
			}
			must(t, a.Merge(&b))
			return []built{{&a, all}}
		},
		"Merge with a value conflict": func(t *testing.T) []built {
			s := full.Clone()
			other := NewSample()
			must(t, other.Add(obs("b", 21, "s5")))
			must(t, other.Add(obs("f", 60, "s5")))
			if err := s.Merge(other); err == nil {
				t.Fatal("Merge missed a value conflict")
			}
			// The first value wins; the observation still counts.
			return []built{{s, append(slices.Clone(all), obs("b", 20, "s5"), obs("f", 60, "s5"))}}
		},
		"Filter": func(t *testing.T) []built {
			s := full.Filter(func(_ string, v float64) bool { return below35(v) })
			return []built{{s, keepObs(all, below35)}}
		},
		"FilterRange": func(t *testing.T) []built {
			s := full.FilterRange(20, 40, true)
			return []built{{s, keepObs(all, func(v float64) bool { return v >= 20 && v <= 40 })}}
		},
		"PartitionRanges": func(t *testing.T) []built {
			parts := full.PartitionRanges([]float64{0, 25, 45}, 50)
			return []built{
				{parts[0], keepObs(all, func(v float64) bool { return v < 25 })},
				{parts[1], keepObs(all, func(v float64) bool { return v >= 25 && v < 45 })},
				{parts[2], keepObs(all, func(v float64) bool { return v >= 45 })},
			}
		},
		"Clone": func(t *testing.T) []built {
			return []built{{full.Clone(), all}}
		},
		"MergePartials": func(t *testing.T) []built {
			names := []string{"s1", "s2", "s3", "s4"}
			srcID := func(name string) int32 { return int32(slices.Index(names, name)) }
			ids, values, srcs := groupObs(all)
			parts := []*Partial{new(Partial), new(Partial)}
			for i, id := range ids {
				var lineage []int32
				for _, name := range srcs[id] {
					lineage = append(lineage, srcID(name))
				}
				parts[i%2].AppendRow(uint64(i), id, values[id], lineage)
			}
			for _, p := range parts {
				p.Freeze()
			}
			s, err := MergePartials(names, parts)
			must(t, err)
			return []built{{s, all}}
		},
	}
	probe := []string{"a", "b", "c", "d", "e", "f", "zz", ""}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			for i, b := range build(t) {
				label := fmt.Sprintf("sample %d", i)
				if err := b.s.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref := addReversed(t, b.want)
				if b.s.C() != ref.C() || b.s.N() != ref.N() {
					t.Errorf("%s: c=%d n=%d, want c=%d n=%d", label, b.s.C(), b.s.N(), ref.C(), ref.N())
				}
				for _, id := range probe {
					if got, want := b.s.Count(id), ref.Count(id); got != want {
						t.Errorf("%s: Count(%q) = %d, want %d", label, id, got, want)
					}
					gv, gok := b.s.Value(id)
					wv, wok := ref.Value(id)
					if gv != wv || gok != wok {
						t.Errorf("%s: Value(%q) = %v, %v, want %v, %v", label, id, gv, gok, wv, wok)
					}
					if got, want := b.s.EntitySourceCounts(id), ref.EntitySourceCounts(id); !maps.Equal(got, want) || (got == nil) != (want == nil) {
						t.Errorf("%s: EntitySourceCounts(%q) = %v, want %v", label, id, got, want)
					}
				}
				if b.s.Fingerprint() != ref.Fingerprint() {
					t.Errorf("%s: fingerprint %x, Add-built in reverse order %x", label, b.s.Fingerprint(), ref.Fingerprint())
				}
			}
		})
	}
}

// TestCheckInvariantsCatchesIndexDrift: a stale index entry, a record
// without an index entry and a misaligned record slice are all reported.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	build := func() *Sample {
		s := NewSample()
		must(t, s.AddAll(indexTestObs()))
		return s
	}
	drifts := map[string]func(s *Sample){
		"swapped index entries": func(s *Sample) { s.index["a"], s.index["b"] = s.index["b"], s.index["a"] },
		"missing index entry":   func(s *Sample) { delete(s.index, "c") },
		"extra record":          func(s *Sample) { s.ents = append(s.ents, entityStat{count: 1, value: 1}) },
	}
	for name, drift := range drifts {
		s := build()
		drift(s)
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants reported no error", name)
		}
	}
}
