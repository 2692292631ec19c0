// Package server implements uuserve's multi-tenant HTTP daemon on top of
// the engine's redesigned public API: every tenant maps to an isolated
// engine.DB (its own tables, cache budgets and ingestion appliers), an
// admission-control layer bounds concurrent query work per tenant and
// globally, and graceful shutdown drains in-flight work, flushes staged
// ingest rows and Saves dirty tenants before the process exits.
//
// Endpoints (all JSON; tenant selected by the X-Tenant header or the
// `tenant` query parameter, defaulting to "default"):
//
//	POST /v1/tables     create a table        {"name": ..., "schema": [{"name","type"},...]}
//	POST /v1/query      run an aggregate      {"sql": "SELECT SUM(v) FROM obs ..."}
//	POST /v1/ingest     NDJSON observations   ?table=obs, lines {"entity","source","attrs"}
//	GET  /v1/subscribe  SSE live re-estimates ?sql=SELECT...
//	GET  /v1/stats      cache/ingest/storage statistics
//	POST /v1/snapshot   persist a tenant to the snapshot directory
//	GET  /healthz       liveness
package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Config configures a Server. The zero value is usable: in-memory
// backend, default budgets, no snapshot directory.
type Config struct {
	// Backend is the per-tenant storage configuration. For the disk
	// backend each tenant gets its own subdirectory of Backend.Dir, so
	// tenants never share segment files.
	Backend engine.StorageConfig
	// ResultCacheBytes is each tenant's whole-result cache budget
	// (default 16 MiB; <= 0 after explicit Set means disabled — use -1 to
	// disable, 0 for the default).
	ResultCacheBytes int
	// Ingest configures each tenant table's background appliers (zero
	// value = engine defaults: one applier, 256-row batches).
	Ingest engine.IngestConfig
	// FlushOnQuery turns on the read-your-writes barrier before every
	// query scan (see engine.WithFlushOnQuery).
	FlushOnQuery bool
	// MaxConcurrent bounds in-flight query/ingest work across all tenants
	// (default 2 x GOMAXPROCS via engine worker sizing — practically, 32).
	MaxConcurrent int
	// TenantConcurrent bounds in-flight work per tenant (default 8).
	TenantConcurrent int
	// AdmissionTimeout is how long a request waits for an admission slot
	// before 503 (default 1s).
	AdmissionTimeout time.Duration
	// SnapshotDir, when set, is where /v1/snapshot and shutdown Saves
	// write <tenant>.json files — and where tenant state is restored from
	// on a tenant's first request after a restart.
	SnapshotDir string
	// Logger receives operational log lines (tenant recovery, shutdown
	// drain outcomes). Nil means log.Default().
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 16 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 32
	}
	if c.TenantConcurrent <= 0 {
		c.TenantConcurrent = 8
	}
	if c.AdmissionTimeout <= 0 {
		c.AdmissionTimeout = time.Second
	}
	return c
}

// Server is the multi-tenant daemon. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	global chan struct{} // global admission semaphore

	// baseCtx dies when shutdown begins: long-lived streams (SSE
	// subscriptions) terminate on it, while in-flight request-scoped work
	// is left to finish and the HTTP layer's own drain.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.RWMutex // guards tenants
	tenants map[string]*tenant

	streams  sync.WaitGroup // live SSE handlers
	shutdown atomic.Bool
	started  time.Time
}

// tenant is one isolated namespace: its own engine.DB (tables, caches,
// ingestion appliers), its own admission slots, and a catalog lock
// serializing table creation/snapshot-load against queries (the engine
// documents catalog mutation as not synchronized with in-flight reads).
type tenant struct {
	name string
	db   *engine.DB
	sem  chan struct{}
	// catalog: write-locked around CreateTable/Load, read-locked around
	// query/ingest/subscribe entry.
	catalog sync.RWMutex
	dirty   atomic.Bool // true once a write landed after the last Save
	queries atomic.Uint64
	rows    atomic.Uint64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		global:  make(chan struct{}, cfg.MaxConcurrent),
		baseCtx: ctx,
		cancel:  cancel,
		tenants: make(map[string]*tenant),
		started: time.Now(),
	}
	s.routes()
	return s
}

// logf writes one operational log line via the configured logger.
func (s *Server) logf(format string, args ...any) {
	l := s.cfg.Logger
	if l == nil {
		l = log.Default()
	}
	l.Printf(format, args...)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes *Server an http.Handler directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// validTenantName keeps tenant names filesystem- and URL-safe (they
// become snapshot filenames and storage subdirectories).
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// tenantName extracts the request's tenant (X-Tenant header, then the
// `tenant` query parameter, then "default").
func tenantName(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

// tenant returns (creating on first use) the named tenant. Creation opens
// an isolated engine.DB with the server's per-tenant budgets and, when a
// snapshot from a previous run exists, restores it.
func (s *Server) tenant(name string) (*tenant, error) {
	if !validTenantName(name) {
		return nil, fmt.Errorf("server: invalid tenant name %q", name)
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t != nil {
		return t, nil
	}
	db, err := s.openTenantDB(name)
	if err != nil {
		return nil, err
	}
	t = &tenant{
		name: name,
		db:   db,
		sem:  make(chan struct{}, s.cfg.TenantConcurrent),
	}
	s.tenants[name] = t
	return t, nil
}

// openTenantDB opens one tenant's isolated database: per-tenant storage
// subdirectory, per-tenant cache budgets, background ingestion appliers —
// and restores the tenant's snapshot when one exists.
func (s *Server) openTenantDB(name string) (*engine.DB, error) {
	opts := []engine.Option{
		engine.WithIngest(s.cfg.Ingest),
		engine.WithFlushOnQuery(s.cfg.FlushOnQuery),
	}
	if s.cfg.ResultCacheBytes > 0 {
		opts = append(opts, engine.WithResultCache(s.cfg.ResultCacheBytes))
	}
	storage := s.cfg.Backend
	if storage.Dir != "" {
		storage.Dir = filepath.Join(storage.Dir, name)
	}
	opts = append(opts, engine.WithBackend(storage))
	db := engine.Open(opts...)
	if s.cfg.SnapshotDir != "" {
		path := filepath.Join(s.cfg.SnapshotDir, name+".json")
		if f, err := os.Open(path); err == nil {
			loadErr := db.Load(f)
			f.Close()
			if loadErr != nil {
				db.Close()
				return nil, fmt.Errorf("server: restoring tenant %q from %s: %w", name, path, loadErr)
			}
		}
	}
	// Durable disk tables not covered by the snapshot (including everything
	// after a crash, when no shutdown Save ran) are recovered straight from
	// their storage directories: segments adopted in place, WAL replayed.
	// Load runs first so snapshot tables with matching on-disk state adopt
	// through it; RecoverTables skips names that are already registered.
	recovered, err := db.RecoverTables()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("server: recovering tenant %q: %w", name, err)
	}
	if len(recovered) > 0 {
		s.logf("server: tenant %q: recovered %d durable table(s) from disk: %s",
			name, len(recovered), strings.Join(recovered, ", "))
	}
	return db, nil
}

// admit acquires one global and one tenant admission slot, waiting up to
// AdmissionTimeout (bounded additionally by the request context). The
// returned release function frees both; ok=false means the server is
// saturated (HTTP 503) or the client went away.
func (s *Server) admit(ctx context.Context, t *tenant) (release func(), ok bool) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.AdmissionTimeout)
	defer cancel()
	select {
	case s.global <- struct{}{}:
	case <-ctx.Done():
		return nil, false
	}
	select {
	case t.sem <- struct{}{}:
	case <-ctx.Done():
		<-s.global
		return nil, false
	}
	return func() {
		<-t.sem
		<-s.global
	}, true
}

// Shutdown stops the daemon gracefully: new work is rejected, live
// subscription streams are closed, and every tenant is drained — staged
// ingest rows applied, dirty tenants Saved to the snapshot directory,
// databases closed. In-flight request handlers are not interrupted; run
// http.Server.Shutdown (which waits for them) between signalling
// BeginShutdown and calling this, or just call Shutdown after the HTTP
// listener has drained. ctx bounds the snapshot/close phase.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginShutdown()
	done := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.closeTenants(ctx)
}

// BeginShutdown flips the server into draining mode: new requests get
// 503 and SSE streams terminate (each with a final "shutdown" event).
// Idempotent.
func (s *Server) BeginShutdown() {
	s.shutdown.Store(true)
	s.cancel()
}

// closeTenants saves and closes every tenant, logging each tenant's
// drain outcome. Save runs before Close and drains each table's
// ingestion staging itself, so rows that reached a Writer flush are in
// the snapshot. Close ALWAYS runs, even when Save fails: Close stops the
// background appliers and flushes their staged rows into the tables (and
// checkpoints durable ones), so skipping it on a failed Save would throw
// away exactly the rows a broken snapshot already failed to capture. A
// Save failure is logged and reported, never silently swallowed.
func (s *Server) closeTenants(ctx context.Context) error {
	s.mu.Lock()
	tenants := s.tenants
	s.tenants = make(map[string]*tenant)
	s.mu.Unlock()
	var firstErr error
	for name, t := range tenants {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.catalog.Lock()
		saved := "clean"
		if s.cfg.SnapshotDir != "" && t.dirty.Load() {
			if err := s.saveTenantLocked(t); err != nil {
				saved = "save FAILED"
				s.logf("server: tenant %q: snapshot save failed: %v", name, err)
				if firstErr == nil {
					firstErr = fmt.Errorf("server: saving tenant %q: %w", name, err)
				}
			} else {
				saved = "saved"
			}
		}
		closeErr := t.db.Close()
		t.catalog.Unlock()
		if closeErr != nil {
			s.logf("server: tenant %q: drain: %s, close failed: %v", name, saved, closeErr)
			if firstErr == nil {
				firstErr = fmt.Errorf("server: closing tenant %q: %w", name, closeErr)
			}
			continue
		}
		s.logf("server: tenant %q: drained (%s, %d queries, %d rows ingested)",
			name, saved, t.queries.Load(), t.rows.Load())
	}
	return firstErr
}

// saveTenantLocked writes the tenant's snapshot atomically
// (tmp + rename). Caller holds the tenant's catalog lock.
func (s *Server) saveTenantLocked(t *tenant) error {
	if err := os.MkdirAll(s.cfg.SnapshotDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.cfg.SnapshotDir, t.name+".json")
	tmp, err := os.CreateTemp(s.cfg.SnapshotDir, t.name+".*.tmp")
	if err != nil {
		return err
	}
	if err := t.db.Save(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	t.dirty.Store(false)
	return nil
}
