package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"repro/internal/sqlparse"
)

// Snapshot serialization: a DB (tables, schemas, records, lineage) can be
// written to and restored from a JSON snapshot, so integrated data sets
// survive process restarts and can be shipped between tools
// (`uuquery`-built databases, test fixtures, ...). The format is
// versioned; readers reject snapshots from a newer major version.

// snapshotVersion is the current snapshot format version.
const snapshotVersion = 1

type snapshotDB struct {
	Version int             `json:"version"`
	Tables  []snapshotTable `json:"tables"`
}

type snapshotTable struct {
	Name   string           `json:"name"`
	Schema []snapshotColumn `json:"schema"`
	// DiskUID identifies the durable on-disk instance this table was
	// saved from (the manifest UID). When Load finds a directory with the
	// same UID and schema it adopts the sealed segments in place instead
	// of re-inserting Records; the rows below remain the portable,
	// backend-agnostic fallback.
	DiskUID string           `json:"disk_uid,omitempty"`
	Records []snapshotRecord `json:"records"`
}

type snapshotColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type snapshotRecord struct {
	Entity  string                   `json:"entity"`
	Attrs   map[string]snapshotValue `json:"attrs"`
	Sources []string                 `json:"sources"`
}

type snapshotValue struct {
	Kind string   `json:"kind"`
	Num  *float64 `json:"num,omitempty"`
	Str  *string  `json:"str,omitempty"`
	Bool *bool    `json:"bool,omitempty"`
}

func encodeValue(v sqlparse.Value) snapshotValue {
	switch v.Kind {
	case sqlparse.ValueNumber:
		return snapshotValue{Kind: "number", Num: &v.Num}
	case sqlparse.ValueString:
		return snapshotValue{Kind: "string", Str: &v.Str}
	case sqlparse.ValueBool:
		return snapshotValue{Kind: "bool", Bool: &v.Bool}
	default:
		return snapshotValue{Kind: "null"}
	}
}

func decodeValue(v snapshotValue) (sqlparse.Value, error) {
	switch v.Kind {
	case "number":
		if v.Num == nil {
			return sqlparse.Value{}, fmt.Errorf("engine: snapshot number without num field")
		}
		return sqlparse.Number(*v.Num), nil
	case "string":
		if v.Str == nil {
			return sqlparse.Value{}, fmt.Errorf("engine: snapshot string without str field")
		}
		return sqlparse.StringValue(*v.Str), nil
	case "bool":
		if v.Bool == nil {
			return sqlparse.Value{}, fmt.Errorf("engine: snapshot bool without bool field")
		}
		return sqlparse.BoolValue(*v.Bool), nil
	case "null":
		return sqlparse.Null(), nil
	default:
		return sqlparse.Value{}, fmt.Errorf("engine: snapshot value kind %q unknown", v.Kind)
	}
}

func encodeColumnType(t ColumnType) string {
	switch t {
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	default:
		return "unknown"
	}
}

func decodeColumnType(s string) (ColumnType, error) {
	switch s {
	case "float":
		return TypeFloat, nil
	case "string":
		return TypeString, nil
	case "bool":
		return TypeBool, nil
	default:
		return 0, fmt.Errorf("engine: snapshot column type %q unknown", s)
	}
}

// Save writes a JSON snapshot of every table (schema, records, lineage).
// Estimator configuration is not part of the snapshot — it belongs to the
// session, not the data. Each table's ingestion staging is drained first,
// so observations appended through the batched path are part of the
// snapshot even when no explicit Flush ran. The drain is a pure
// visibility barrier: value-conflict warnings (non-fatal, first value
// wins — the table state is valid) stay queued for the writer's next
// Flush rather than aborting an otherwise sound snapshot.
func (db *DB) Save(w io.Writer) error {
	snap := snapshotDB{Version: snapshotVersion}
	for _, name := range db.TableNames() {
		t := db.tables[name]
		t.drainAll()
		st := snapshotTable{Name: t.name, DiskUID: t.uid}
		for _, c := range t.schema {
			st.Schema = append(st.Schema, snapshotColumn{Name: c.Name, Type: encodeColumnType(c.Type)})
		}
		for _, row := range t.rowsSnapshot() {
			sr := snapshotRecord{Entity: row.ID, Attrs: map[string]snapshotValue{}, Sources: row.Sources}
			for k, v := range row.Attrs {
				sr.Attrs[k] = encodeValue(v)
			}
			st.Records = append(st.Records, sr)
		}
		// Canonical record order: entities are unique within a table and
		// records are independent (first-wins applies within an entity, never
		// across), so ordering carries no meaning — sorting makes the bytes
		// deterministic regardless of backend, ingest path or apply timing.
		sort.Slice(st.Records, func(i, j int) bool { return st.Records[i].Entity < st.Records[j].Entity })
		snap.Tables = append(snap.Tables, st)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load restores tables from a JSON snapshot into an empty (or partially
// filled) database; it fails on table name collisions and leaves the
// database unchanged on any error by staging into a scratch DB first.
// Restored tables are created on the DB's configured storage backend, so
// loading is also the conversion path between backends: a snapshot saved
// from an in-memory database restores 1:1 into a disk-backed one and vice
// versa (the snapshot format is backend-agnostic).
//
// On a durable disk-backed DB, a snapshot table that was saved from a
// durable instance carries that instance's UID; when the storage
// directory still holds a table with the same name, UID and schema, Load
// adopts its sealed segments in place (O(metadata), no row re-inserted)
// instead of replaying the snapshot's records. The directory is
// authoritative in that case — it may hold rows acknowledged after the
// snapshot was written, and durability wins over snapshot point-in-time
// semantics. Any mismatch (different UID, changed schema, recovery
// failure) falls back to the record-replay path, which rebuilds the
// table from the snapshot via the bulk ingest writer.
func (db *DB) Load(r io.Reader) error {
	var snap snapshotDB
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	if snap.Version > snapshotVersion {
		return fmt.Errorf("engine: snapshot version %d is newer than supported %d", snap.Version, snapshotVersion)
	}
	storage := resolveStorage(db.storage)
	durable := storage.Backend == BackendDisk && storage.Durable
	staged := DB{storage: db.storage}
	adoptedDisk := make(map[string]bool)
	adopted := false
	defer func() {
		if adopted {
			return
		}
		// Failed load: the staged tables are abandoned. Tables this load
		// created also own their segment directories, so those are removed
		// (nothing will ever reference the files again) — but a table
		// adopted from a pre-existing durable directory is only closed: its
		// files are real recovered data, not this load's scratch space.
		for _, name := range staged.TableNames() {
			if adoptedDisk[name] {
				staged.tables[name].Close()
			} else {
				staged.tables[name].discardStorage()
			}
		}
	}()
	for _, st := range snap.Tables {
		if _, exists := db.tables[st.Name]; exists {
			return fmt.Errorf("engine: snapshot table %q %w", st.Name, ErrTableExists)
		}
		schema := make(Schema, 0, len(st.Schema))
		for _, c := range st.Schema {
			ct, err := decodeColumnType(c.Type)
			if err != nil {
				return err
			}
			schema = append(schema, Column{Name: c.Name, Type: ct})
		}
		if durable && st.DiskUID != "" {
			if t := adoptDurableTable(st.Name, st.DiskUID, schema, storage); t != nil {
				if staged.tables == nil {
					staged.tables = make(map[string]*Table)
				}
				staged.tables[st.Name] = t
				adoptedDisk[st.Name] = true
				continue
			}
		}
		tbl, err := staged.CreateTable(st.Name, schema)
		if err != nil {
			return err
		}
		w := tbl.NewWriter()
		for _, sr := range st.Records {
			attrs := make(map[string]sqlparse.Value, len(sr.Attrs))
			for k, v := range sr.Attrs {
				dv, err := decodeValue(v)
				if err != nil {
					return fmt.Errorf("engine: table %q entity %q: %w", st.Name, sr.Entity, err)
				}
				attrs[k] = dv
			}
			if len(sr.Sources) == 0 {
				return fmt.Errorf("engine: table %q entity %q has no sources", st.Name, sr.Entity)
			}
			for _, src := range sr.Sources {
				// Append errors (schema violations, or a failed WAL append
				// of a durable table's push) fail the load outright.
				if err := w.Append(sr.Entity, src, attrs); err != nil {
					return fmt.Errorf("engine: restoring table %q: %w", st.Name, err)
				}
			}
		}
		// Flush surfaces the deferred apply errors with the same conflict
		// accounting the bulk loaders use. A snapshot written by Save never
		// conflicts with itself, so any error here means corrupted or
		// hand-edited input — fail the load rather than restore a table
		// that silently differs from the snapshot.
		if err := w.Flush(); err != nil {
			return fmt.Errorf("engine: restoring table %q: %d conflicts/errors: %w",
				st.Name, countConflicts(err), err)
		}
	}
	if db.tables == nil {
		db.tables = make(map[string]*Table)
	}
	adopted = true
	for name, t := range staged.tables {
		db.tables[name] = t
	}
	// Adopted tables inherit the DB's per-table options (scan-cache
	// budgets, background ingestion) exactly like CreateTable'd ones. A
	// fresh table can only fail StartIngest on a negative IngestConfig,
	// which Open-time validation would have produced for every prior
	// CreateTable too — so this error path is all but unreachable here.
	var firstErr error
	for _, name := range staged.TableNames() {
		if err := db.adoptTable(staged.tables[name]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// adoptDurableTable tries to re-open the durable table directory
// <storage.Dir>/<name> for a snapshot table saved with DiskUID uid.
// Returns nil (fall back to record replay) unless the directory holds a
// manifest with exactly that UID and schema and recovers cleanly — the
// fallback path then recreates the table, wiping the stale directory.
func adoptDurableTable(name, uid string, schema Schema, storage StorageConfig) *Table {
	m, err := readTableManifest(filepath.Join(storage.Dir, name))
	if err != nil || m == nil || m.UID != uid {
		return nil
	}
	ms, err := schemaFromManifest(m.Schema)
	if err != nil || len(ms) != len(schema) {
		return nil
	}
	for i := range ms {
		if ms[i] != schema[i] {
			return nil
		}
	}
	t, err := recoverTable(name, storage)
	if err != nil {
		return nil
	}
	return t
}
