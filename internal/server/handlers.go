package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sqlparse"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/tables", s.handleCreateTable)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// httpError classifies an engine error into an HTTP status and a stable
// machine-readable kind — the payoff of the typed error taxonomy: the
// server never substring-matches.
func httpError(err error) (int, string) {
	switch {
	case errors.Is(err, engine.ErrParse):
		return http.StatusBadRequest, "parse"
	case errors.Is(err, engine.ErrUnknownTable):
		return http.StatusNotFound, "unknown_table"
	case errors.Is(err, engine.ErrUnknownColumn):
		return http.StatusNotFound, "unknown_column"
	case errors.Is(err, engine.ErrTableExists):
		return http.StatusConflict, "table_exists"
	case errors.Is(err, engine.ErrConflict):
		return http.StatusConflict, "value_conflict"
	case errors.Is(err, engine.ErrSegmentLimit):
		return http.StatusConflict, "segment_limit"
	case errors.Is(err, engine.ErrInvalidRow):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeError(w http.ResponseWriter, err error) {
	status, kind := httpError(err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Kind: kind})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// overloaded reports admission failure (or draining) as 503 with a
// Retry-After hint.
func overloaded(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: msg, Kind: "overloaded"})
}

// begin resolves the request's tenant and acquires admission; on success
// the caller runs with the tenant catalog read-locked and must call
// done().
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (*tenant, func(), bool) {
	if s.shutdown.Load() {
		overloaded(w, "server is shutting down")
		return nil, nil, false
	}
	t, err := s.tenant(tenantName(r))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), Kind: "unknown_tenant"})
		return nil, nil, false
	}
	release, ok := s.admit(r.Context(), t)
	if !ok {
		overloaded(w, fmt.Sprintf("tenant %q admission timed out (server saturated)", t.name))
		return nil, nil, false
	}
	t.catalog.RLock()
	return t, func() {
		t.catalog.RUnlock()
		release()
	}, true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.shutdown.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// ---- POST /v1/tables ----

type createTableRequest struct {
	Name   string `json:"name"`
	Schema []struct {
		Name string `json:"name"`
		Type string `json:"type"` // float | string | bool
	} `json:"schema"`
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	if s.shutdown.Load() {
		overloaded(w, "server is shutting down")
		return
	}
	t, err := s.tenant(tenantName(r))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), Kind: "unknown_tenant"})
		return
	}
	var req createTableRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error(), Kind: "bad_request"})
		return
	}
	schema := make(engine.Schema, 0, len(req.Schema))
	for _, c := range req.Schema {
		ct, err := parseColumnType(c.Type)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Kind: "bad_request"})
			return
		}
		schema = append(schema, engine.Column{Name: c.Name, Type: ct})
	}
	// Table creation mutates the tenant catalog: exclusive lock.
	t.catalog.Lock()
	_, err = t.db.CreateTable(req.Name, schema)
	t.catalog.Unlock()
	if err != nil {
		writeError(w, err)
		return
	}
	t.dirty.Store(true)
	writeJSON(w, http.StatusCreated, map[string]any{"table": req.Name, "tenant": t.name})
}

func parseColumnType(s string) (engine.ColumnType, error) {
	switch strings.ToLower(s) {
	case "float", "number", "numeric":
		return engine.TypeFloat, nil
	case "string", "text":
		return engine.TypeString, nil
	case "bool", "boolean":
		return engine.TypeBool, nil
	default:
		return 0, fmt.Errorf("unknown column type %q (want float, string or bool)", s)
	}
}

// ---- POST /v1/query ----

type queryRequest struct {
	SQL string `json:"sql"`
}

// jsonFloat is a float64 that renders NaN and ±Inf as null — JSON has no
// encoding for them, and estimators legitimately produce NaN in
// degenerate regimes (encoding/json would otherwise abort the response
// mid-body).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// estimateJSON is the wire form of one estimator's correction.
type estimateJSON struct {
	Observed       jsonFloat `json:"observed"`
	Estimated      jsonFloat `json:"estimated"`
	Delta          jsonFloat `json:"delta"`
	CountObserved  int       `json:"count_observed"`
	CountEstimated jsonFloat `json:"count_estimated"`
	Coverage       jsonFloat `json:"coverage"`
	Valid          bool      `json:"valid"`
	Diverged       bool      `json:"diverged,omitempty"`
	LowCoverage    bool      `json:"low_coverage,omitempty"`
}

func toEstimateJSON(e core.Estimate) estimateJSON {
	return estimateJSON{
		Observed:       jsonFloat(e.Observed),
		Estimated:      jsonFloat(e.Estimated),
		Delta:          jsonFloat(e.Delta),
		CountObserved:  e.CountObserved,
		CountEstimated: jsonFloat(e.CountEstimated),
		Coverage:       jsonFloat(e.Coverage),
		Valid:          e.Valid,
		Diverged:       e.Diverged,
		LowCoverage:    e.LowCoverage,
	}
}

type queryResponse struct {
	Tenant    string                  `json:"tenant"`
	SQL       string                  `json:"sql"`
	Observed  jsonFloat               `json:"observed"`
	Coverage  jsonFloat               `json:"coverage"`
	Estimates map[string]estimateJSON `json:"estimates,omitempty"`
	Best      *bestJSON               `json:"best,omitempty"`
	Bound     *boundJSON              `json:"bound,omitempty"`
	Extreme   *extremeJSON            `json:"extreme,omitempty"`
	Groups    []groupJSON             `json:"groups,omitempty"`
	Warnings  []string                `json:"warnings,omitempty"`
}

type bestJSON struct {
	Estimator string    `json:"estimator"`
	Estimated jsonFloat `json:"estimated"`
}

type boundJSON struct {
	SumBound    jsonFloat `json:"sum_bound"`
	Informative bool      `json:"informative"`
}

type extremeJSON struct {
	Observed             jsonFloat `json:"observed"`
	Trusted              bool      `json:"trusted"`
	ExtremeBucketMissing jsonFloat `json:"extreme_bucket_missing"`
}

type groupJSON struct {
	Key    string        `json:"key"`
	Result queryResponse `json:"result"`
}

func toQueryResponse(tenantName, sql string, res *engine.Result) queryResponse {
	out := queryResponse{
		Tenant:   tenantName,
		SQL:      sql,
		Observed: jsonFloat(res.Observed),
		Coverage: jsonFloat(res.Coverage),
		Warnings: res.Warnings,
	}
	if len(res.Estimates) > 0 {
		out.Estimates = make(map[string]estimateJSON, len(res.Estimates))
		for name, e := range res.Estimates {
			out.Estimates[name] = toEstimateJSON(e)
		}
	}
	if best, name, ok := res.Best(); ok {
		out.Best = &bestJSON{Estimator: name, Estimated: jsonFloat(best.Estimated)}
	}
	if res.Query != nil && res.Query.Agg == sqlparse.AggSum && len(res.Groups) == 0 {
		out.Bound = &boundJSON{SumBound: jsonFloat(res.Bound.SumBound), Informative: res.Bound.Informative}
	}
	if res.Extreme != nil {
		out.Extreme = &extremeJSON{
			Observed:             jsonFloat(res.Extreme.Observed),
			Trusted:              res.Extreme.Trusted,
			ExtremeBucketMissing: jsonFloat(res.Extreme.ExtremeBucketMissing),
		}
	}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, groupJSON{
			Key:    g.Key.String(),
			Result: toQueryResponse(tenantName, sql, g.Result),
		})
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "decoding request: " + err.Error(), Kind: "bad_request"})
		return
	}
	res, err := t.db.QueryContext(r.Context(), req.SQL)
	if err != nil {
		writeError(w, err)
		return
	}
	t.queries.Add(1)
	writeJSON(w, http.StatusOK, toQueryResponse(t.name, req.SQL, res))
}

// ---- POST /v1/ingest ----

type ingestResponse struct {
	Tenant   string   `json:"tenant"`
	Table    string   `json:"table"`
	Rows     int      `json:"rows"`
	Warnings []string `json:"warnings,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	tableName := r.URL.Query().Get("table")
	tbl, ok := t.db.Table(tableName)
	if !ok {
		writeError(w, fmt.Errorf("server: %w %q", engine.ErrUnknownTable, tableName))
		return
	}
	// The whole body is decoded before any row is staged, so a malformed
	// line rejects the batch with nothing applied (see ndjson.go).
	batch, err := decodeIngest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Kind: "bad_request"})
		return
	}
	defer batch.release()
	// Rows ride the batched asynchronous path: a request-local Writer
	// stages lock-free chunks, the tenant's background appliers drain
	// them, and the final Flush is the read-your-writes barrier that also
	// surfaces data-quality warnings. Append copies what it stages, so one
	// attribute map serves every row.
	//
	// A request that fails part way (an invalid row, or a push whose WAL
	// append failed) may already have pushed earlier chunks: those rows
	// are staged and apply with the next drain. The tenant is marked
	// dirty so they reach the next snapshot, and the row count only
	// grows for a fully accepted request. Retrying the whole request is
	// safe: a same-source re-report of an entity is idempotent.
	writer := tbl.NewWriter()
	fail := func(err error) {
		t.dirty.Store(true)
		writeError(w, err)
	}
	var attrs map[string]sqlparse.Value
	for i, row := range batch.rows {
		attrs = batch.attrMap(attrs, row)
		if err := writer.Append(row.entity, row.source, attrs); err != nil {
			fail(fmt.Errorf("line %d: %w", i+1, err))
			return
		}
	}
	rows := len(batch.rows)
	resp := ingestResponse{Tenant: t.name, Table: tableName, Rows: rows}
	status := http.StatusOK
	// Writer.Flush runs the read-your-writes barrier and surfaces pending
	// apply errors. Value conflicts are data-quality warnings (first value
	// wins, the rows landed): report 409 with the rows still counted so
	// clients both see the data arrive and learn their input is unclean.
	if err := writer.Flush(); err != nil {
		if errors.Is(err, engine.ErrConflict) {
			status = http.StatusConflict
			resp.Warnings = append(resp.Warnings, strings.Split(err.Error(), "\n")...)
		} else {
			fail(err)
			return
		}
	}
	if rows > 0 {
		t.dirty.Store(true)
		t.rows.Add(uint64(rows))
	}
	writeJSON(w, status, resp)
}

// ---- GET /v1/subscribe ----

// handleSubscribe streams live re-estimates as Server-Sent Events: one
// "estimate" event per applied ingest batch on the queried table (plus an
// immediate baseline), and a final "shutdown" event when the daemon
// drains.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	t, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	sql := r.URL.Query().Get("sql")
	sub, err := t.db.Subscribe(sql)
	done() // admission covers subscription setup, not the stream's lifetime
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported", Kind: "internal"})
		return
	}
	s.streams.Add(1)
	defer s.streams.Done()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case res, ok := <-sub.Updates():
			if !ok {
				return
			}
			if err := writeSSE(w, "estimate", toQueryResponse(t.name, sql, res)); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			writeSSE(w, "shutdown", map[string]string{"status": "draining"})
			flusher.Flush()
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// ---- GET /v1/stats ----

type tableStats struct {
	Records      int    `json:"records"`
	Observations int    `json:"observations"`
	Sources      int    `json:"sources"`
	Backend      string `json:"backend"`
	StagedRows   int    `json:"staged_rows"`
	AppliedRows  uint64 `json:"applied_rows"`
	Batches      uint64 `json:"batches"`
	DictEntries  int    `json:"dict_entries"`
	DictBytes    int64  `json:"dict_bytes"`
}

type tenantStats struct {
	Queries      uint64                `json:"queries"`
	IngestedRows uint64                `json:"ingested_rows"`
	Tables       map[string]tableStats `json:"tables"`
	Cache        engine.CacheStats     `json:"cache"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.RUnlock()
	out := map[string]any{
		"uptime":  time.Since(s.started).Round(time.Millisecond).String(),
		"tenants": map[string]tenantStats{},
	}
	tenants := out["tenants"].(map[string]tenantStats)
	for _, name := range names {
		s.mu.RLock()
		t := s.tenants[name]
		s.mu.RUnlock()
		if t == nil {
			continue
		}
		t.catalog.RLock()
		ts := tenantStats{
			Queries:      t.queries.Load(),
			IngestedRows: t.rows.Load(),
			Tables:       map[string]tableStats{},
			Cache:        t.db.CacheStats(),
		}
		for _, tn := range t.db.TableNames() {
			tbl, ok := t.db.Table(tn)
			if !ok {
				continue
			}
			ist := tbl.IngestStats()
			cst := tbl.CacheStats()
			ts.Tables[tn] = tableStats{
				Records:      tbl.NumRecords(),
				Observations: tbl.NumObservations(),
				Sources:      len(tbl.Sources()),
				Backend:      tbl.StorageBackend().String(),
				StagedRows:   ist.StagedRows,
				AppliedRows:  ist.AppliedRows,
				Batches:      ist.Batches,
				DictEntries:  cst.DictEntries,
				DictBytes:    cst.DictBytes,
			}
		}
		t.catalog.RUnlock()
		tenants[name] = ts
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- POST /v1/snapshot ----

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, done, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer done()
	if s.cfg.SnapshotDir == "" {
		// No snapshot directory: stream the snapshot to the caller.
		w.Header().Set("Content-Type", "application/json")
		if err := t.db.Save(w); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Kind: "internal"})
		}
		return
	}
	if err := s.saveTenantLocked(t); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error(), Kind: "internal"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"tenant": t.name,
		"path":   s.cfg.SnapshotDir + "/" + t.name + ".json",
	})
}
