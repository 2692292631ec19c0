package freqstats

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func buildPartial(rows []PartialRow, lineages [][]int32) *Partial {
	p := new(Partial)
	for i, r := range rows {
		p.AppendRow(r.Seq, r.ID, r.Value, lineages[i])
	}
	return p
}

func TestPartialAppendAndAccessors(t *testing.T) {
	var p Partial // zero value must be usable
	if p.Rows() != 0 || p.Obs() != 0 || p.Frozen() {
		t.Fatalf("zero Partial not empty/mutable: rows=%d obs=%d frozen=%v", p.Rows(), p.Obs(), p.Frozen())
	}
	p.Grow(3, 5)
	p.AppendRow(10, "a", 1.5, []int32{0, 2})
	p.AppendRow(20, "b", 2.5, nil)
	p.AppendRow(30, "c", 3.5, []int32{1})
	if p.Rows() != 3 || p.Obs() != 3 {
		t.Fatalf("rows=%d obs=%d, want 3/3", p.Rows(), p.Obs())
	}
	// The arena copy must be a real copy: mutating the caller's slice after
	// AppendRow must not change the partial's content.
	src := []int32{0}
	p.AppendRow(40, "d", 4.5, src)
	before := p.Fingerprint()
	src[0] = 99
	if p.Fingerprint() != before {
		t.Fatal("AppendRow aliased the caller's lineage slice")
	}
	p.Reset()
	if p.Rows() != 0 || p.Obs() != 0 {
		t.Fatal("Reset did not clear the partial")
	}
}

// TestPartialCopyRows: copying rows from a frozen partial, some with a
// grown lineage, equals building the same rows with AppendRow, keeps the
// source untouched, and carries the ID hashes the merge's duplicate check
// reads.
func TestPartialCopyRows(t *testing.T) {
	src := buildPartial(
		[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}, {Seq: 30, ID: "c", Value: 3}},
		[][]int32{{0}, {0, 1}, {1}},
	)
	src.Freeze()
	srcFP := src.Fingerprint()
	var got Partial
	got.CopyRows(src, 0, 1)
	got.CopyRow(src, 1, []int32{0, 1, 2})
	got.CopyRows(src, 2, 3)
	want := buildPartial(
		[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}, {Seq: 30, ID: "c", Value: 3}},
		[][]int32{{0}, {0, 1, 2}, {1}},
	)
	if got.Fingerprint() != want.Fingerprint() || got.Obs() != 5 || got.Seq(1) != 20 {
		t.Fatalf("copied partial differs from the AppendRow build")
	}
	if src.Fingerprint() != srcFP {
		t.Fatal("copying changed the source partial")
	}
	for i := range got.rows {
		if got.rows[i].hash != want.rows[i].hash {
			t.Fatalf("row %d lost its ID hash", i)
		}
	}
	if _, err := MergePartials([]string{"s0", "s1", "s2"}, []*Partial{&got, src}); err == nil {
		t.Fatal("merge of a copied row with its source missed the duplicate")
	}
}

func TestPartialFreezeSortsAndMemoizes(t *testing.T) {
	// Out-of-order producer: Freeze must leave rows ascending by seq, and
	// the fingerprint must equal that of a partial built in order.
	shuffled := buildPartial(
		[]PartialRow{{Seq: 30, ID: "c", Value: 3}, {Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
		[][]int32{{1}, {0}, {0, 1}},
	)
	ordered := buildPartial(
		[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}, {Seq: 30, ID: "c", Value: 3}},
		[][]int32{{0}, {0, 1}, {1}},
	)
	shuffled.Freeze()
	if !sortedBySeq(shuffled.rows) {
		t.Fatal("Freeze left rows out of seq order")
	}
	if got, want := shuffled.Fingerprint(), ordered.Fingerprint(); got != want {
		t.Fatalf("frozen shuffled fingerprint %#x != ordered mutable fingerprint %#x", got, want)
	}
	if !shuffled.Frozen() {
		t.Fatal("Freeze did not mark the partial frozen")
	}
	memo := shuffled.Fingerprint()
	shuffled.Freeze() // no-op
	if shuffled.Fingerprint() != memo {
		t.Fatal("second Freeze changed the fingerprint")
	}
}

func TestPartialMutatorsPanicWhenFrozen(t *testing.T) {
	mutations := map[string]func(p *Partial){
		"AppendRow": func(p *Partial) { p.AppendRow(1, "x", 0, nil) },
		"Grow":      func(p *Partial) { p.Grow(1, 1) },
		"Reset":     func(p *Partial) { p.Reset() },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			p := buildPartial([]PartialRow{{Seq: 1, ID: "a", Value: 1}}, [][]int32{{0}})
			p.Freeze()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a frozen Partial did not panic", name)
				}
			}()
			mutate(p)
		})
	}
}

func TestPartialFingerprintSensitivity(t *testing.T) {
	base := func() *Partial {
		return buildPartial(
			[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{0}, {1}},
		)
	}
	ref := base().Fingerprint()
	variants := map[string]*Partial{
		"value": buildPartial(
			[]PartialRow{{Seq: 10, ID: "a", Value: 1.0000001}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{0}, {1}}),
		"id": buildPartial(
			[]PartialRow{{Seq: 10, ID: "z", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{0}, {1}}),
		"seq": buildPartial(
			[]PartialRow{{Seq: 11, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{0}, {1}}),
		"lineage": buildPartial(
			[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{1}, {1}}),
		"extra-obs": buildPartial(
			[]PartialRow{{Seq: 10, ID: "a", Value: 1}, {Seq: 20, ID: "b", Value: 2}},
			[][]int32{{0, 1}, {1}}),
	}
	for name, v := range variants {
		if v.Fingerprint() == ref {
			t.Errorf("fingerprint insensitive to %s change", name)
		}
	}
}

func TestPartialFootprintBytes(t *testing.T) {
	var p Partial
	empty := p.FootprintBytes()
	if empty <= 0 {
		t.Fatalf("empty footprint %d, want > 0", empty)
	}
	p.AppendRow(1, "entity-with-a-long-name", 1, []int32{0, 1, 2})
	grown := p.FootprintBytes()
	if grown <= empty+len("entity-with-a-long-name") {
		t.Fatalf("footprint %d did not account for row, arena and ID bytes over %d", grown, empty)
	}
}

// TestMergePartialsMatchesDirectBuild: merging per-shard partials must
// produce a Sample bitwise-identical (fingerprint, counts, attribution)
// to adding the same observations to a Sample directly in seq order.
func TestMergePartialsMatchesDirectBuild(t *testing.T) {
	names := []string{"s0", "s1", "s2"}
	// Three "shards" with interleaved seqs.
	parts := []*Partial{
		buildPartial(
			[]PartialRow{{Seq: 1, ID: "a", Value: 1}, {Seq: 7, ID: "d", Value: 4}},
			[][]int32{{0, 1}, {2}}),
		buildPartial(
			[]PartialRow{{Seq: 3, ID: "b", Value: 2}},
			[][]int32{{1, 1}}),
		buildPartial(
			[]PartialRow{{Seq: 5, ID: "c", Value: 3}, {Seq: 9, ID: "e", Value: 5}},
			[][]int32{{0}, {0, 2}}),
	}
	direct := NewSample()
	type flat struct {
		id    string
		value float64
		srcs  []string
	}
	for _, f := range []flat{
		{"a", 1, []string{"s0", "s1"}},
		{"b", 2, []string{"s1", "s1"}},
		{"c", 3, []string{"s0"}},
		{"d", 4, []string{"s2"}},
		{"e", 5, []string{"s0", "s2"}},
	} {
		ids := make([]int32, len(f.srcs))
		for i, sn := range f.srcs {
			ids[i] = direct.InternSource(sn)
		}
		if err := direct.AddEntityObservations(f.id, f.value, ids); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergePartials(names, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Fingerprint(), direct.Fingerprint(); got != want {
		t.Fatalf("merged fingerprint %#x != direct build %#x", got, want)
	}
	if !reflect.DeepEqual(merged.SourceContributions(), direct.SourceContributions()) {
		t.Fatalf("source contributions differ: %v vs %v", merged.SourceContributions(), direct.SourceContributions())
	}

	// Frozen (cached) partials must merge to the identical sample.
	for _, p := range parts {
		p.Freeze()
	}
	refrozen, err := MergePartials(names, parts)
	if err != nil {
		t.Fatal(err)
	}
	if refrozen.Fingerprint() != direct.Fingerprint() {
		t.Fatalf("frozen merge fingerprint %#x != direct build %#x", refrozen.Fingerprint(), direct.Fingerprint())
	}

	// Nil and empty partials are skipped, not errors.
	withGaps := []*Partial{nil, parts[0], new(Partial), parts[1], parts[2], nil}
	gapped, err := MergePartials(names, withGaps)
	if err != nil {
		t.Fatal(err)
	}
	if gapped.Fingerprint() != direct.Fingerprint() {
		t.Fatal("nil/empty partials changed the merge result")
	}
}

// TestPartialRowBytes: the per-row footprint charge covers the row, so
// the partial cache's byte budget never undercounts.
func TestPartialRowBytes(t *testing.T) {
	if size := unsafe.Sizeof(PartialRow{}); size > rowBytes {
		t.Fatalf("PartialRow is %d B but FootprintBytes charges %d per row", size, rowBytes)
	}
}

// TestMergePartialsDuplicateCheckExact: the merge refuses a second row of
// an entity wherever it sits, and row hashes alone never decide: distinct
// IDs with equal hashes merge, and a duplicate behind such a collision is
// still found.
func TestMergePartialsDuplicateCheckExact(t *testing.T) {
	names := []string{"s0", "s1"}
	dupErr := fmt.Sprintf("freqstats: AddNewEntityObservations called twice for entity %q", "b")
	// forceHash sets every row of p to the same hash.
	forceHash := func(p *Partial) *Partial {
		for i := range p.rows {
			p.rows[i].hash = 42
		}
		return p
	}
	cases := map[string]struct {
		parts   []*Partial
		wantErr string
		wantC   int
	}{
		"same ID in two partials": {
			parts: []*Partial{
				buildPartial([]PartialRow{{Seq: 1, ID: "a", Value: 1}, {Seq: 4, ID: "b", Value: 2}}, [][]int32{{0}, {1}}),
				buildPartial([]PartialRow{{Seq: 2, ID: "b", Value: 2}, {Seq: 3, ID: "c", Value: 3}}, [][]int32{{0}, {1}}),
			},
			wantErr: dupErr,
		},
		"ID twice in one partial": {
			parts: []*Partial{
				buildPartial([]PartialRow{{Seq: 1, ID: "b", Value: 2}, {Seq: 2, ID: "a", Value: 1}, {Seq: 3, ID: "b", Value: 2}}, [][]int32{{0}, {0}, {1}}),
			},
			wantErr: dupErr,
		},
		"distinct IDs with equal hashes": {
			parts: []*Partial{
				forceHash(buildPartial([]PartialRow{{Seq: 1, ID: "a", Value: 1}, {Seq: 3, ID: "c", Value: 3}}, [][]int32{{0}, {0, 1}})),
				forceHash(buildPartial([]PartialRow{{Seq: 2, ID: "b", Value: 2}}, [][]int32{{1}})),
			},
			wantC: 3,
		},
		"duplicate behind a hash collision": {
			parts: []*Partial{
				forceHash(buildPartial([]PartialRow{{Seq: 1, ID: "a", Value: 1}, {Seq: 2, ID: "b", Value: 2}, {Seq: 3, ID: "b", Value: 2}}, [][]int32{{0}, {0}, {1}})),
			},
			wantErr: dupErr,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := MergePartials(names, tc.parts)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr || s != nil {
					t.Fatalf("got sample %v, error %v; want no sample and error %q", s, err, tc.wantErr)
				}
				return
			}
			must(t, err)
			must(t, s.CheckInvariants())
			if s.C() != tc.wantC {
				t.Fatalf("c = %d, want %d", s.C(), tc.wantC)
			}
			for _, id := range s.Entities() {
				if s.Count(id) == 0 {
					t.Errorf("Count(%q) = 0 after the merge", id)
				}
			}
		})
	}
}

// TestMergedSampleSharedLookups: goroutines sharing one merged sample race
// to its deferred index build through every path that needs the index,
// and all of them see the complete index. It runs under -short too, so
// the race detector sees it in `make race`.
func TestMergedSampleSharedLookups(t *testing.T) {
	// Enough entities that the index build overlaps between goroutines.
	all := indexTestObs()
	for i := 0; i < 5000; i++ {
		all = append(all, obs(fmt.Sprintf("x%04d", i), float64(i), indexTestSources[i%len(indexTestSources)]))
	}
	ref := addReversed(t, all)
	probe := []string{"a", "b", "c", "d", "e", "x0000", "x4999", "zz", ""}
	s := mergeObs(t, all)
	if !s.indexPending.Load() {
		t.Fatal("MergePartials built its index eagerly")
	}
	const goroutines = 8
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			check := func(s *Sample) error {
				for _, id := range probe {
					gv, gok := s.Value(id)
					wv, wok := ref.Value(id)
					if s.Count(id) != ref.Count(id) || gv != wv || gok != wok ||
						!maps.Equal(s.EntitySourceCounts(id), ref.EntitySourceCounts(id)) {
						return fmt.Errorf("goroutine %d: lookups of %q disagree with the Add-built sample", g, id)
					}
				}
				return nil
			}
			// Each goroutine reaches the index through a different path
			// first.
			var err error
			switch g % 3 {
			case 0:
				err = check(s)
			case 1:
				err = s.CheckInvariants()
			case 2:
				err = check(s.Clone())
			}
			if err == nil {
				err = check(s)
			}
			errs <- err
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestMutateMergedSample: Add and Merge into a merged sample extend the
// entities it already holds and index the new ones.
func TestMutateMergedSample(t *testing.T) {
	all := indexTestObs()
	extra := []Observation{obs("a", 10, "s5"), obs("f", 60, "s1"), obs("f", 60, "s2")}
	want := addReversed(t, append(slices.Clone(all), extra...))
	mutations := map[string]func(s *Sample){
		"Add": func(s *Sample) { must(t, s.AddAll(extra)) },
		"Merge": func(s *Sample) {
			other := NewSample()
			must(t, other.AddAll(extra))
			must(t, s.Merge(other))
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			s := mergeObs(t, all)
			mutate(s)
			must(t, s.CheckInvariants())
			for _, id := range []string{"a", "b", "c", "d", "e", "f", "zz"} {
				if got, w := s.Count(id), want.Count(id); got != w {
					t.Errorf("Count(%q) = %d, want %d", id, got, w)
				}
				if got, w := s.EntitySourceCounts(id), want.EntitySourceCounts(id); !maps.Equal(got, w) {
					t.Errorf("EntitySourceCounts(%q) = %v, want %v", id, got, w)
				}
			}
			if s.Fingerprint() != want.Fingerprint() {
				t.Errorf("fingerprint %x, Add-built %x", s.Fingerprint(), want.Fingerprint())
			}
		})
	}
}

// FuzzMergePartialsParity: random rows with short IDs (so duplicates
// occur), split over random partials with interleaved seqs, either fail
// MergePartials with the error a row-by-row reference build reports, or
// merge to the sample Add builds from the same observations.
func FuzzMergePartialsParity(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 5, 2, 2, 7, 9})
	f.Add([]byte{1, 0, 1, 2, 1, 1, 2, 3, 1, 2, 2, 4, 7, 3, 3, 5, 9})
	f.Add([]byte{1, 4, 3, 1, 1, 5, 3, 1, 2})
	f.Add([]byte{0, 2, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		names := []string{"s0", "s1", "s2", "s3"}
		freeze := data[0]&1 == 1
		parts := make([]*Partial, 1+int(data[0]>>1)%4)
		for i := range parts {
			parts[i] = new(Partial)
		}
		ref := NewSample()
		var refErr error
		// Each row takes 4 bytes: its partial, its ID (byte 0 names the
		// empty ID), its value and its lineage (a length of 0-3 and one
		// source per 2 bits).
		for seq, i := 0, 1; i+4 <= len(data); seq, i = seq+1, i+4 {
			part := parts[int(data[i])%len(parts)]
			id := ""
			if b := data[i+1] % 7; b > 0 {
				id = string(rune('a' + b - 1))
			}
			value := float64(data[i+2]%5) - 1.5
			lineage := make([]int32, data[i+3]%4)
			for k := range lineage {
				lineage[k] = int32(data[i+3]>>(2+2*k)) % int32(len(names))
			}
			part.AppendRow(uint64(seq), id, value, lineage)
			if refErr != nil {
				continue
			}
			switch {
			case id == "":
				refErr = fmt.Errorf("freqstats: observation with empty entity ID")
			case len(lineage) == 0:
				refErr = fmt.Errorf("freqstats: entity %q added with no source observations", id)
			case ref.Count(id) > 0:
				refErr = fmt.Errorf("freqstats: AddNewEntityObservations called twice for entity %q", id)
			}
			for _, src := range lineage {
				if refErr == nil {
					refErr = ref.Add(Observation{EntityID: id, Value: value, Source: names[src]})
				}
			}
		}
		if freeze {
			for _, p := range parts {
				p.Freeze()
			}
		}
		s, err := MergePartials(names, parts)
		if refErr != nil || err != nil {
			if refErr == nil || err == nil || err.Error() != refErr.Error() || s != nil {
				t.Fatalf("merge: sample %v, error %v; reference error %v", s, err, refErr)
			}
			return
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if s.Fingerprint() != ref.Fingerprint() {
			t.Errorf("fingerprint %x, reference %x", s.Fingerprint(), ref.Fingerprint())
		}
		if !slices.Equal(s.Entities(), ref.Entities()) {
			t.Errorf("entities %q, reference %q", s.Entities(), ref.Entities())
		}
		if math.Float64bits(s.SumValues()) != math.Float64bits(ref.SumValues()) {
			t.Errorf("SumValues %v, reference %v", s.SumValues(), ref.SumValues())
		}
		if !slices.Equal(s.OccurrenceCounts(), ref.OccurrenceCounts()) {
			t.Errorf("occurrence counts %v, reference %v", s.OccurrenceCounts(), ref.OccurrenceCounts())
		}
		if !slices.Equal(s.SourceSizes(), ref.SourceSizes()) {
			t.Errorf("source sizes %v, reference %v", s.SourceSizes(), ref.SourceSizes())
		}
	})
}

func TestMergePartialsLineageBounds(t *testing.T) {
	p := buildPartial([]PartialRow{{Seq: 1, ID: "a", Value: 1}}, [][]int32{{5}})
	_, err := MergePartials([]string{"only"}, []*Partial{p})
	if err == nil {
		t.Fatal("lineage ID outside the source table did not error")
	}
	want := fmt.Sprintf("freqstats: partial lineage ID %d outside source table (len %d)", 5, 1)
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
