package engine

import "repro/internal/core"

// Functional-options construction. Open(opts...) replaces the historical
// zero-value-plus-setters idiom (&DB{Estimators: ...} followed by
// EnableResultCache / StartIngest calls scattered over the call site):
// every knob is declared up front, before the DB serves traffic, which is
// exactly the window the DB's own documentation demands for Storage,
// Estimators and FlushOnQuery. The old setters keep working — Open merely
// folds them into one construction expression — but new code (and
// everything in this repository) goes through Open.

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
	return func(db *DB) { db.Storage = cfg }
}

// WithEstimators sets the unknown-unknowns estimator set attached to
// query results. Omitting it (or passing none) keeps the paper's
// DefaultEstimators.
func WithEstimators(ests ...core.SumEstimator) Option {
	return func(db *DB) {
		if len(ests) > 0 {
			db.Estimators = ests
		}
	}
}

// WithResultCache enables the whole-query result cache with the given
// approximate byte budget (see EnableResultCache; <= 0 keeps it
// disabled).
func WithResultCache(maxBytes int) Option {
	return func(db *DB) { db.EnableResultCache(maxBytes) }
}

// WithFlushOnQuery sets the read-your-writes drain barrier before every
// query scan (see the FlushOnQuery field).
func WithFlushOnQuery(on bool) Option {
	return func(db *DB) { db.FlushOnQuery = on }
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
