package freqstats

// Attribution-overhead benchmarks: the cost of carrying exact per-entity
// per-source observation counts through bulk construction and Filter,
// against white-box baselines that replay the pre-attribution code shape
// (entity counts plus an aggregate per-source tally). Run with:
//
//	go test -bench=Attribution -benchmem ./internal/freqstats
//
// Representative numbers (1-CPU dev container, 2.10GHz Xeon):
//
//	BenchmarkBulkBuildAttribution      ~3.5ms/op,    86 allocs  (20k entities, 90k obs)
//	BenchmarkBulkBuildNoAttribution    ~2.6ms/op,    85 allocs  (baseline shape)
//	BenchmarkFilterAttribution         ~3.4ms/op,   111 allocs  (keep half)
//	BenchmarkFilterNoAttribution       ~2.6ms/op,   114 allocs  (old scaled approximation)
//
// The ~1ms delta on both paths is the per-observation attribution work
// (translate + arena append + totals). At the engine level the exact path
// is a wash or better: the columnar scan stopped hashing a source string
// per observation when lineage moved to interned IDs, which pays for the
// attribution it now carries (see bench_columnar_test.go).

import (
	"fmt"
	"math/rand"
	"testing"
)

const (
	benchEntities       = 20000
	benchSourcesPerSamp = 8
)

type bulkRow struct {
	id    string
	value float64
	srcs  []int32
}

// benchRows builds a bulk workload shaped like an engine shard merge:
// every entity reported by 1 + (i % benchSourcesPerSamp) distinct sources.
func benchRows() []bulkRow {
	rows := make([]bulkRow, benchEntities)
	for i := range rows {
		n := 1 + i%benchSourcesPerSamp
		srcs := make([]int32, n)
		for j := range srcs {
			srcs[j] = int32(j)
		}
		rows[i] = bulkRow{
			id:    fmt.Sprintf("entity-%05d", i),
			value: float64(i % 1000),
			srcs:  srcs,
		}
	}
	return rows
}

func internBenchSources(s *Sample) {
	for j := 0; j < benchSourcesPerSamp; j++ {
		s.InternSource(fmt.Sprintf("src-%d", j))
	}
}

func totalObs(rows []bulkRow) int {
	n := 0
	for _, r := range rows {
		n += len(r.srcs)
	}
	return n
}

func BenchmarkBulkBuildAttribution(b *testing.B) {
	rows := benchRows()
	obs := totalObs(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSampleWithCapacity(len(rows), benchSourcesPerSamp, obs)
		internBenchSources(s)
		for _, r := range rows {
			if err := s.AddEntityObservations(r.id, r.value, r.srcs); err != nil {
				b.Fatal(err)
			}
		}
		if s.N() != obs {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkBulkBuildNoAttribution replays the pre-attribution builder
// shape: per-entity counts and values plus one aggregate per-source tally,
// no per-entity source vectors. White-box on purpose — the attribution-free
// builder no longer exists in the API.
func BenchmarkBulkBuildNoAttribution(b *testing.B) {
	rows := benchRows()
	obs := totalObs(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSampleWithCapacity(len(rows), benchSourcesPerSamp, 0)
		internBenchSources(s)
		for _, r := range rows {
			s.bumpEntity(r.id, r.value, len(r.srcs))
			for _, src := range r.srcs {
				s.srcTotals[src]++
			}
		}
		if s.N() != obs {
			b.Fatal("bad sample")
		}
	}
}

func benchFilterSample(b *testing.B) *Sample {
	b.Helper()
	rows := benchRows()
	s := NewSampleWithCapacity(len(rows), benchSourcesPerSamp, totalObs(rows))
	internBenchSources(s)
	for _, r := range rows {
		if err := s.AddEntityObservations(r.id, r.value, r.srcs); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkFilterAttribution(b *testing.B) {
	s := benchFilterSample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.Filter(func(_ string, v float64) bool { return v < 500 })
		if f.C() == 0 {
			b.Fatal("empty filter result")
		}
	}
}

// BenchmarkFilterNoAttribution replays the deleted scaled approximation:
// copy kept entities, then scale each aggregate source size by the kept
// fraction of n — the code shape Filter had before attribution.
func BenchmarkFilterNoAttribution(b *testing.B) {
	s := benchFilterSample(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewSample()
		for j, es := range s.ents {
			if es.value >= 500 {
				continue
			}
			es.srcs = nil
			out.index[s.order[j]] = int32(len(out.ents))
			out.order = append(out.order, s.order[j])
			out.ents = append(out.ents, es)
			out.n += es.count
			out.fstat[es.count]++
		}
		if s.n > 0 {
			frac := float64(out.n) / float64(s.n)
			for sid, nj := range s.srcTotals {
				scaled := int(float64(nj)*frac + 0.5)
				if scaled > 0 {
					out.InternSource(s.srcNames[sid])
					out.srcTotals[len(out.srcTotals)-1] = scaled
				}
			}
		}
		if out.C() == 0 {
			b.Fatal("empty filter result")
		}
	}
}

// BenchmarkMergePartials merges 16 frozen partials at the synthetic-avg
// query's scale — ~6.7k kept entities and ~11k observations from 10
// sources, hash-sharded over 16 shards with interleaved seqs — the merge
// a partial-cache hit leaves to every query.
func BenchmarkMergePartials(b *testing.B) {
	const (
		shards   = 16
		entities = 6700
		sources  = 10
	)
	names := make([]string, sources)
	for i := range names {
		names[i] = fmt.Sprintf("src-%d", i)
	}
	rng := rand.New(rand.NewSource(1))
	parts := make([]*Partial, shards)
	for i := range parts {
		parts[i] = new(Partial)
	}
	for e := 0; e < entities; e++ {
		lineage := []int32{int32(rng.Intn(sources))}
		for len(lineage) < 4 && rng.Intn(5) < 2 {
			lineage = append(lineage, int32(rng.Intn(sources)))
		}
		parts[rng.Intn(shards)].AppendRow(uint64(e), fmt.Sprintf("entity-%05d", e), float64(rng.Intn(100000))/7, lineage)
	}
	for _, p := range parts {
		p.Freeze()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := MergePartials(names, parts)
		if err != nil || s.C() != entities {
			b.Fatal("bad merge", err)
		}
	}
}
