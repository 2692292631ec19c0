package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// newTestServer starts a live HTTP server (real streaming, so SSE works)
// around a fresh daemon. The caller gets the *Server for direct shutdown
// control.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func createTable(t *testing.T, base, tenant, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"name": %q, "schema": [{"name": "name", "type": "string"}, {"name": "v", "type": "float"}]}`, name)
	req, _ := http.NewRequest("POST", base+"/v1/tables", strings.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create table: status %d: %s", resp.StatusCode, b)
	}
}

// ndjsonRows renders n observations over eight sources; entity values are
// i%97 like the engine's own context tests.
func ndjsonRows(n, offset int) string {
	var sb strings.Builder
	for i := offset; i < offset+n; i++ {
		fmt.Fprintf(&sb, `{"entity": "e%d", "source": "s%d", "attrs": {"name": "e%d", "v": %d}}`+"\n",
			i, i%8, i, i%97)
	}
	return sb.String()
}

func ingestRows(t *testing.T, base, tenant, table, body string) ingestResponse {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/v1/ingest?table="+table, strings.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, b)
	}
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postQuery(t *testing.T, base, tenant, sql string) (int, queryResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{SQL: sql})
	req, _ := http.NewRequest("POST", base+"/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("decoding query response: %v (%s)", err, raw)
		}
		return resp.StatusCode, qr, errorResponse{}
	}
	var er errorResponse
	json.Unmarshal(raw, &er)
	return resp.StatusCode, queryResponse{}, er
}

// TestQueryParity proves the HTTP surface answers exactly what a direct
// engine.DB does for the same data and estimator configuration.
func TestQueryParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "default", "obs")
	ingestRows(t, ts.URL, "default", "obs", ndjsonRows(500, 0))

	const sql = "SELECT SUM(v) FROM obs WHERE v < 50"
	status, got, _ := postQuery(t, ts.URL, "default", sql)
	if status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}

	direct := engine.Open()
	defer direct.Close()
	tbl, err := direct.CreateTable("obs", engine.Schema{
		{Name: "name", Type: engine.TypeString},
		{Name: "v", Type: engine.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := tbl.NewWriter()
	for i := 0; i < 500; i++ {
		if err := w.Append(fmt.Sprintf("e%d", i), fmt.Sprintf("s%d", i%8), map[string]sqlparse.Value{
			"name": sqlparse.StringValue(fmt.Sprintf("e%d", i)),
			"v":    sqlparse.Number(float64(i % 97)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := direct.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	if !sameFloat(float64(got.Observed), want.Observed) {
		t.Errorf("observed: HTTP %v, direct %v", got.Observed, want.Observed)
	}
	if len(got.Estimates) != len(want.Estimates) {
		t.Fatalf("estimate sets differ: HTTP %d, direct %d", len(got.Estimates), len(want.Estimates))
	}
	for name, we := range want.Estimates {
		ge, ok := got.Estimates[name]
		if !ok {
			t.Fatalf("estimator %q missing from HTTP response", name)
		}
		if !sameFloat(float64(ge.Estimated), we.Estimated) || !sameFloat(float64(ge.Delta), we.Delta) {
			t.Errorf("estimator %q: HTTP (est %v, delta %v), direct (est %v, delta %v)",
				name, ge.Estimated, ge.Delta, we.Estimated, we.Delta)
		}
	}
}

// sameFloat is float equality where NaN == NaN (NaN crosses the wire as
// JSON null and comes back as NaN).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestTenantIsolation: two tenants hold a same-named table with different
// data; queries and cache budgets never bleed across.
func TestTenantIsolation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for tenantName, rows := range map[string]int{"alpha": 100, "beta": 300} {
		createTable(t, ts.URL, tenantName, "obs")
		ingestRows(t, ts.URL, tenantName, "obs", ndjsonRows(rows, 0))
	}

	var observed = map[string]float64{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	// Concurrent queries from both tenants (the acceptance criterion's
	// "serves concurrent queries from >= 2 tenants").
	for _, tenantName := range []string{"alpha", "beta"} {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				status, qr, er := postQuery(t, ts.URL, tn, "SELECT COUNT(*) FROM obs")
				if status != http.StatusOK {
					t.Errorf("tenant %s: status %d (%s)", tn, status, er.Error)
					return
				}
				mu.Lock()
				observed[tn] = float64(qr.Observed)
				mu.Unlock()
			}(tenantName)
		}
	}
	wg.Wait()
	if observed["alpha"] != 100 || observed["beta"] != 300 {
		t.Fatalf("tenant data bled: alpha=%v beta=%v", observed["alpha"], observed["beta"])
	}

	// gamma never ingested: its namespace has no table at all.
	status, _, er := postQuery(t, ts.URL, "gamma", "SELECT COUNT(*) FROM obs")
	if status != http.StatusNotFound || er.Kind != "unknown_table" {
		t.Fatalf("fresh tenant saw another tenant's table: status %d kind %q", status, er.Kind)
	}

	// Cache budgets are per-tenant: each tenant's result cache carries its
	// own (nonzero) bytes after a repeat query, and the stats report them
	// separately.
	postQuery(t, ts.URL, "alpha", "SELECT COUNT(*) FROM obs")
	srv.mu.RLock()
	alpha, beta := srv.tenants["alpha"], srv.tenants["beta"]
	srv.mu.RUnlock()
	as, bs := alpha.db.CacheStats(), beta.db.CacheStats()
	if as.ResultBytes == 0 || bs.ResultBytes == 0 {
		t.Fatalf("per-tenant result caches not populated: alpha %d bytes, beta %d bytes", as.ResultBytes, bs.ResultBytes)
	}
	if as.ResultHits == 0 {
		t.Fatalf("alpha repeat query missed its result cache")
	}
}

// TestErrorMapping locks the typed-error -> HTTP-status contract.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "default", "obs")

	cases := []struct {
		sql    string
		status int
		kind   string
	}{
		{"SELEKT SUM(v) FROM obs", http.StatusBadRequest, "parse"},
		{"SELECT SUM(v) FROM ghost", http.StatusNotFound, "unknown_table"},
		{"SELECT SUM(ghost) FROM obs", http.StatusNotFound, "unknown_column"},
	}
	for _, tc := range cases {
		status, _, er := postQuery(t, ts.URL, "default", tc.sql)
		if status != tc.status || er.Kind != tc.kind {
			t.Errorf("%q: got status %d kind %q, want %d %q (%s)", tc.sql, status, er.Kind, tc.status, tc.kind, er.Error)
		}
	}

	// Duplicate table -> 409 table_exists.
	body := `{"name": "obs", "schema": [{"name": "v", "type": "float"}]}`
	resp, err := http.Post(ts.URL+"/v1/tables", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || er.Kind != "table_exists" {
		t.Errorf("duplicate table: status %d kind %q", resp.StatusCode, er.Kind)
	}

	// Segment-limit seal failures -> 409 segment_limit. Classified via
	// the mapper directly: provoking a dictionary too large to seal
	// through HTTP would need gigabytes of distinct strings.
	if status, kind := httpError(fmt.Errorf("seal: %w", engine.ErrSegmentLimit)); status != http.StatusConflict || kind != "segment_limit" {
		t.Errorf("segment limit: status %d kind %q", status, kind)
	}

	// Malformed rows -> 400 bad_request.
	if status, kind := httpError(fmt.Errorf("line 3: %w", engine.ErrInvalidRow)); status != http.StatusBadRequest || kind != "bad_request" {
		t.Errorf("invalid row: status %d kind %q", status, kind)
	}

	// Conflicting values -> 409 value_conflict, rows still landed.
	conflict := `{"entity": "e1", "source": "sA", "attrs": {"v": 1}}` + "\n" +
		`{"entity": "e1", "source": "sB", "attrs": {"v": 2}}` + "\n"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?table=obs", strings.NewReader(conflict))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting ingest: status %d", resp.StatusCode)
	}
	if ir.Rows != 2 || len(ir.Warnings) == 0 {
		t.Fatalf("conflicting ingest: rows %d warnings %v", ir.Rows, ir.Warnings)
	}

	// Invalid tenant name -> 404 unknown_tenant.
	status, _, er := postQuery(t, ts.URL, "../escape", "SELECT COUNT(*) FROM obs")
	if status != http.StatusNotFound || er.Kind != "unknown_tenant" {
		t.Errorf("invalid tenant: status %d kind %q", status, er.Kind)
	}
}

// TestAdmissionControl saturates a 1-slot server with a held-open ingest
// request and proves the next request bounces with 503.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent:    1,
		TenantConcurrent: 1,
		AdmissionTimeout: 50 * time.Millisecond,
	})
	createTable(t, ts.URL, "default", "obs")

	// Hold the only slot: an ingest whose body stays open.
	pr, pw := io.Pipe()
	held := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest?table=obs", pr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		held <- err
	}()
	pw.Write([]byte(`{"entity": "e1", "source": "s1", "attrs": {"v": 1}}` + "\n"))
	// Wait until the slot is definitely held: the next query must bounce.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _, er := postQuery(t, ts.URL, "default", "SELECT COUNT(*) FROM obs")
		if status == http.StatusServiceUnavailable {
			if er.Kind != "overloaded" {
				t.Fatalf("saturated server: kind %q", er.Kind)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never saturated: last status %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pw.Close()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// Slot released: queries are admitted again.
	status, _, er := postQuery(t, ts.URL, "default", "SELECT COUNT(*) FROM obs")
	if status != http.StatusOK {
		t.Fatalf("after release: status %d (%s)", status, er.Error)
	}
}

// readSSEEvent reads one "event:"/"data:" pair from an SSE stream.
func readSSEEvent(t *testing.T, sc *bufio.Scanner) (event, data string) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("SSE stream ended early (scan err: %v)", sc.Err())
	return "", ""
}

// TestSubscribeSSE: a subscription's baseline estimate arrives first,
// then an ingest triggers a live re-estimate reflecting the new rows, and
// shutdown closes the stream with a final shutdown event.
func TestSubscribeSSE(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "default", "obs")
	ingestRows(t, ts.URL, "default", "obs", ndjsonRows(100, 0))

	resp, err := http.Get(ts.URL + "/v1/subscribe?sql=" + strings.ReplaceAll("SELECT COUNT(*) FROM obs", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	event, data := readSSEEvent(t, sc)
	if event != "estimate" {
		t.Fatalf("first event %q, want estimate", event)
	}
	var baseline queryResponse
	if err := json.Unmarshal([]byte(data), &baseline); err != nil {
		t.Fatal(err)
	}
	if baseline.Observed != 100 {
		t.Fatalf("baseline observed %v, want 100", baseline.Observed)
	}

	// New rows land through the batched path; the subscription re-executes
	// after the applied batch and must see the larger count.
	ingestRows(t, ts.URL, "default", "obs", ndjsonRows(150, 100))
	deadline := time.Now().Add(10 * time.Second)
	var latest queryResponse
	for latest.Observed != 250 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription never saw the post-ingest re-estimate (latest observed %v)", latest.Observed)
		}
		event, data = readSSEEvent(t, sc)
		if event != "estimate" {
			t.Fatalf("event %q mid-stream, want estimate", event)
		}
		if err := json.Unmarshal([]byte(data), &latest); err != nil {
			t.Fatal(err)
		}
	}

	// Shutdown terminates the stream with a final shutdown event.
	go srv.BeginShutdown()
	for {
		event, _ = readSSEEvent(t, sc)
		if event == "shutdown" {
			break
		}
		if event != "estimate" {
			t.Fatalf("unexpected event %q while draining", event)
		}
	}
}

// TestGracefulShutdownDrain: rows ingested before shutdown survive into
// the snapshot, and a fresh daemon over the same snapshot directory
// restores them — the full kill/restart loop.
func TestGracefulShutdownDrain(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{SnapshotDir: dir})
	createTable(t, ts.URL, "alpha", "obs")
	ingestRows(t, ts.URL, "alpha", "obs", ndjsonRows(200, 0))

	// A live subscription must be closed by the drain, not wedge it.
	subResp, err := http.Get(ts.URL + "/v1/subscribe?tenant=alpha&sql=" + strings.ReplaceAll("SELECT COUNT(*) FROM obs", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer subResp.Body.Close()
	sc := bufio.NewScanner(subResp.Body)
	readSSEEvent(t, sc) // baseline: the stream is live

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(t.Context()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown wedged (subscription not drained?)")
	}

	// New work is rejected while/after draining.
	status, _, _ := postQuery(t, ts.URL, "alpha", "SELECT COUNT(*) FROM obs")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown query: status %d, want 503", status)
	}

	// The tenant snapshot landed on disk...
	snap := filepath.Join(dir, "alpha.json")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	// ...and a fresh daemon restores it.
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir})
	status, qr, er := postQuery(t, ts2.URL, "alpha", "SELECT COUNT(*) FROM obs")
	if status != http.StatusOK {
		t.Fatalf("restored query: status %d (%s)", status, er.Error)
	}
	if qr.Observed != 200 {
		t.Fatalf("restored observed %v, want 200", qr.Observed)
	}
}

// TestStatsEndpoint sanity-checks /v1/stats per-tenant accounting.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "alpha", "obs")
	ingestRows(t, ts.URL, "alpha", "obs", ndjsonRows(50, 0))
	postQuery(t, ts.URL, "alpha", "SELECT COUNT(*) FROM obs")

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Tenants map[string]tenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	a, ok := out.Tenants["alpha"]
	if !ok {
		t.Fatalf("tenant alpha missing from stats: %+v", out.Tenants)
	}
	if a.Queries != 1 || a.IngestedRows != 50 {
		t.Fatalf("alpha stats: queries %d rows %d", a.Queries, a.IngestedRows)
	}
	obs, ok := a.Tables["obs"]
	if !ok || obs.Observations != 50 {
		t.Fatalf("alpha table stats: %+v", a.Tables)
	}
}

// postIngest posts an NDJSON body and returns the status and error body.
func postIngest(t *testing.T, base, tenant, table, body string) (int, errorResponse) {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/v1/ingest?table="+table, strings.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}

// ingestState is what a rejected batch must leave unchanged: the table's
// COUNT(*), the tenant's ingested_rows and the table's applied_rows.
type ingestState struct {
	count             float64
	ingested, applied uint64
}

func readIngestState(t *testing.T, base, tenant, table string) ingestState {
	t.Helper()
	status, qr, er := postQuery(t, base, tenant, "SELECT COUNT(*) FROM "+table)
	if status != http.StatusOK {
		t.Fatalf("count: status %d: %s", status, er.Error)
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Tenants map[string]tenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ts := out.Tenants[tenant]
	return ingestState{float64(qr.Observed), ts.IngestedRows, ts.Tables[table].AppliedRows}
}

// TestIngestMalformedBatchAppliesNothing: a batch with one malformed line
// is rejected whole. Its earlier rows span several full writer chunks
// per shard, so staging them before the bad line was found would apply
// some of them.
func TestIngestMalformedBatchAppliesNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "default", "obs")
	ingestRows(t, ts.URL, "default", "obs", ndjsonRows(100, 0))
	before := readIngestState(t, ts.URL, "default", "obs")
	if before.count != 100 || before.ingested != 100 || before.applied != 100 {
		t.Fatalf("after the first batch: %+v", before)
	}
	bad := []string{
		`{"entity": "x", "source": "s0", "attrs": {"v": 1}`,
		`{"entity": "x", "source": "s0", "attrs": {"v": {"nested": 1}}}`,
		`{"entity": "x", "source": "s0", "attrs": {"v": 1e400}}`,
		`{"entity": 7, "source": "s0"}`,
		`{"entity": "", "source": "s0"}`,
		`{"entity": "x"}`,
		`null`,
		`[1, 2]`,
	}
	for _, line := range bad {
		body := ndjsonRows(5000, 1000) + "\n" + line + "\n" + ndjsonRows(99, 7000)
		status, er := postIngest(t, ts.URL, "default", "obs", body)
		if status != http.StatusBadRequest || er.Kind != "bad_request" || !strings.HasPrefix(er.Error, "line 5001") {
			t.Errorf("%s: status %d kind %q error %q, want 400 bad_request at line 5001", line, status, er.Kind, er.Error)
		}
		if after := readIngestState(t, ts.URL, "default", "obs"); after != before {
			t.Errorf("%s: rejected batch changed the tenant: %+v, want %+v", line, after, before)
		}
	}
}

// TestIngestClientErrors: rows the engine rejects for their data are 400
// bad_request naming the line, not 500.
func TestIngestClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createTable(t, ts.URL, "default", "obs")
	ok := `{"entity": "e0", "source": "s0", "attrs": {"v": 1}}` + "\n"
	cases := []struct {
		line, kind, msg string
		status          int
	}{
		{`{"entity": "", "source": "s0"}`, "bad_request", "line 2: empty entity ID", http.StatusBadRequest},
		{`{"entity": "e1", "source": ""}`, "bad_request", "line 2: empty source", http.StatusBadRequest},
		{`null`, "bad_request", "line 2: empty entity ID", http.StatusBadRequest},
		{`{"entity": "e1", "source": "s0", "attrs": {"v": "oops"}}`, "bad_request", `line 2: engine: obs: entity "e1": column "v" expects FLOAT`, http.StatusBadRequest},
		{`{"entity": "e1", "source": "s0", "attrs": {"name": true}}`, "bad_request", `line 2: engine: obs: entity "e1": column "name" expects STRING`, http.StatusBadRequest},
		{`{"entity": "e1", "source": "s0", "attrs": {"ghost": 1}}`, "unknown_column", `line 2: engine: obs: entity "e1": unknown column "ghost"`, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, er := postIngest(t, ts.URL, "default", "obs", ok+tc.line+"\n")
		if status != tc.status || er.Kind != tc.kind || !strings.HasPrefix(er.Error, tc.msg) {
			t.Errorf("%s: status %d kind %q error %q, want %d %q %q", tc.line, status, er.Kind, er.Error, tc.status, tc.kind, tc.msg)
		}
	}
}
