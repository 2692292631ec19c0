package repro

// Service-level benchmark: end-to-end HTTP query latency against uuserve's
// handler stack (admission control, tenant catalog lock, engine execution,
// JSON rendering) as the concurrent client count grows — the ROADMAP's
// "query p50/p99 vs concurrent client count" trajectory item. ns/op tracks
// mean latency; the p50-ms and p99-ms metrics carry the distribution into
// the bench-compare artifact.
//
// Run with: go test -bench=ServeQuery -benchtime=2s
//
// BenchmarkServeIngest is the write side: 500-row NDJSON bodies posted to
// /v1/ingest, so its ns/op is one batch's decode, staging, apply and
// read-your-writes flush behind the HTTP stack.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

func BenchmarkServeQuery(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			benchServeQuery(b, clients)
		})
	}
}

func benchServeQuery(b *testing.B, clients int) {
	srv := server.New(server.Config{
		MaxConcurrent:    2 * clients,
		TenantConcurrent: 2 * clients,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	mustPost(b, ts.URL+"/v1/tables",
		`{"name": "obs", "schema": [{"name": "v", "type": "float"}]}`)
	var rows strings.Builder
	for i := 0; i < 1024; i++ {
		fmt.Fprintf(&rows, `{"entity": "e%d", "source": "s%d", "attrs": {"v": %d}}`+"\n", i, i%16, i%97)
	}
	mustPost(b, ts.URL+"/v1/ingest?table=obs", rows.String())

	queryBody := []byte(`{"sql": "SELECT SUM(v) FROM obs WHERE v < 50"}`)
	work := make(chan struct{})
	var (
		mu   sync.Mutex
		lats []time.Duration
		errs []error
	)
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			local := make([]time.Duration, 0, b.N/clients+1)
			for range work {
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(queryBody))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("query status %d", resp.StatusCode)
					}
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					continue
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	b.StopTimer()
	if len(errs) > 0 {
		b.Fatalf("%d/%d queries failed; first: %v", len(errs), b.N, errs[0])
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(quantile(lats, 0.50))/1e6, "p50-ms")
	b.ReportMetric(float64(quantile(lats, 0.99))/1e6, "p99-ms")
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func mustPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		b.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
}

// BenchmarkServeIngest posts 500-row NDJSON batches, shaped like the
// bench/ serve-ingest workload's, into a memory-backed tenant: ns/op and
// B/op are per batch, rows/s is the ingest rate.
func BenchmarkServeIngest(b *testing.B) {
	const (
		batchRows  = 500
		bodies     = 256
		population = 200000
	)
	srv := server.New(server.Config{Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	mustPost(b, ts.URL+"/v1/tables",
		`{"name": "obs", "schema": [{"name": "region", "type": "string"}, {"name": "v", "type": "float"}]}`)

	rng := rand.New(rand.NewSource(1))
	batches := make([][]byte, bodies)
	for i := range batches {
		var body []byte
		for r := 0; r < batchRows; r++ {
			e := rng.Intn(population)
			body = fmt.Appendf(body, `{"entity":"item-%06d","source":"src-%02d","attrs":{"region":"r-%03d","v":%g}}`+"\n",
				e, rng.Intn(24), e%256, float64(e%9973)*1.25)
		}
		batches[i] = body
	}

	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/ingest?table=obs", "application/x-ndjson", bytes.NewReader(batches[i%bodies]))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(b.N*batchRows)/b.Elapsed().Seconds(), "rows/s")
}
