package engine

import (
	"slices"

	"repro/internal/core"
)

// Functional-options construction. Open(opts...) is the only way to
// configure a DB: every setting is declared up front, before the DB serves
// traffic, and none can change afterwards. That is what lets queries read
// the settings without synchronization and key the result cache by table,
// query and data version alone.

// Option configures a DB at Open time.
type Option func(*DB)

// Open constructs a DB from functional options. With no options it is
// equivalent to new(DB): an empty in-memory database with the paper's
// default estimators. Tables created later (CreateTable, snapshot Load)
// inherit the per-table option — background ingestion — at
// creation/adoption time.
func Open(opts ...Option) *DB {
	db := &DB{}
	for _, opt := range opts {
		opt(db)
	}
	return db
}

// WithBackend selects the shard-storage backend for tables created
// through the DB (see StorageConfig; the zero config is the in-memory
// default).
func WithBackend(cfg StorageConfig) Option {
	return func(db *DB) { db.storage = cfg }
}

// WithEstimators sets the unknown-unknowns estimator set attached to
// query results. Omitting it (or passing none) keeps the paper's
// DefaultEstimators. The slice is copied, so later writes to the caller's
// slice do not reach the DB.
func WithEstimators(ests ...core.SumEstimator) Option {
	return func(db *DB) {
		if len(ests) > 0 {
			db.ests = slices.Clone(ests)
		}
	}
}

// WithResultCache enables the whole-query result cache with the given
// approximate byte budget (<= 0 keeps it disabled). Results are keyed by
// (table, canonical query) and the exact vector of shard write epochs the
// scan observed, so any write that changes the table invalidates its
// entries implicitly. Cached *Result values are shared between callers
// and must be treated read-only.
func WithResultCache(maxBytes int) Option {
	return func(db *DB) {
		db.results = nil
		if maxBytes > 0 {
			db.results = newResultCache(maxBytes)
		}
	}
}

// WithFlushOnQuery sets the read-your-writes barrier: each query first
// drains the queried table's ingestion staging, so it sees every
// observation staged to that table before it started. The drain is a pure
// visibility barrier: apply-time value conflicts stay queued for the
// writer's next explicit Flush — a reader's query neither fails on nor
// consumes another writer's data-quality warnings. Off by default:
// queries then serve a consistent point-in-time snapshot of the applied
// rows and never wait for ingestion — the streaming posture of online
// aggregation.
func WithFlushOnQuery(on bool) Option {
	return func(db *DB) { db.flushOnQuery = on }
}

// WithIngest starts batched background ingestion (Table.StartIngest) on
// every table the DB creates or adopts, with the given configuration.
// The DB owns the resulting Ingesters: Close stops them — applying
// everything still staged — before releasing table storage, so a DB
// closed mid-stream loses nothing that reached a Writer flush.
func WithIngest(cfg IngestConfig) Option {
	return func(db *DB) { db.ingestCfg = &cfg }
}

// adoptTable applies the DB's per-table options to a newly created or
// snapshot-adopted table: background ingestion.
func (db *DB) adoptTable(t *Table) error {
	if db.ingestCfg != nil {
		ing, err := t.StartIngest(*db.ingestCfg)
		if err != nil {
			return err
		}
		db.ingesters = append(db.ingesters, ing)
	}
	return nil
}
