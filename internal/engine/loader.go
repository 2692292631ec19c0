package engine

import (
	"fmt"
	"io"

	"repro/internal/csvio"
	"repro/internal/freqstats"
	"repro/internal/sqlparse"
)

// LoadObservations bulk-loads an observation stream into a table, mapping
// each observation's value to the given numeric column and its entity ID
// to an optional label column. The table must have been created with those
// columns. The load rides the batched Writer staging path (ingest.go) —
// per-shard columnar chunks applied under one lock acquisition and one
// epoch bump per batch — with a terminal Flush barrier, so the load is
// fully applied and visible when it returns. Value conflicts surface at
// that Flush and are counted, not fatal (the first value wins); a failed
// WAL append of a durable table's push is returned as the error. Returns
// the number of conflicts.
func LoadObservations(t *Table, obs []freqstats.Observation, valueColumn, labelColumn string) (int, error) {
	if err := checkLoadColumns(t, valueColumn, labelColumn); err != nil {
		return 0, err
	}
	return writeObservations(t.NewWriter(), t, obs, valueColumn, labelColumn, 0)
}

// StreamObservations is LoadObservations through the batched asynchronous
// ingestion pipeline: observations are staged through a Writer, a
// background Ingester drains per-shard batches of batchRows (0 = default),
// and a read-your-writes Flush barrier runs every flushEvery observations
// (0 = only at the end). Value conflicts are counted like
// LoadObservations — the first value wins and the stream keeps going.
// The table must not already have an active Ingester.
func StreamObservations(t *Table, obs []freqstats.Observation, valueColumn, labelColumn string, batchRows, flushEvery int) (conflicts int, err error) {
	if err := checkLoadColumns(t, valueColumn, labelColumn); err != nil {
		return 0, err
	}
	ing, err := t.StartIngest(IngestConfig{BatchRows: batchRows})
	if err != nil {
		return 0, err
	}
	defer func() {
		conflicts += countConflicts(ing.Close())
	}()
	c, err := writeObservations(ing.NewWriter(), t, obs, valueColumn, labelColumn, flushEvery)
	return conflicts + c, err
}

// checkLoadColumns validates the loader column mapping against the
// table's schema.
func checkLoadColumns(t *Table, valueColumn, labelColumn string) error {
	if col, ok := t.Schema().Column(valueColumn); !ok || col.Type != TypeFloat {
		return fmt.Errorf("engine: table %q needs a FLOAT column %q", t.Name(), valueColumn)
	}
	if labelColumn != "" {
		if col, ok := t.Schema().Column(labelColumn); !ok || col.Type != TypeString {
			return fmt.Errorf("engine: table %q needs a STRING column %q", t.Name(), labelColumn)
		}
	}
	return nil
}

// writeObservations is the shared staging loop of LoadObservations and
// StreamObservations: every observation goes through the Writer w, with a
// read-your-writes Flush barrier every flushEvery observations (0 = only
// at the end). Conflicts are counted via the Flush error semantics; a
// failed push ends the load with its error.
func writeObservations(w *Writer, t *Table, obs []freqstats.Observation, valueColumn, labelColumn string, flushEvery int) (conflicts int, err error) {
	// The LoadCSVTable shape — exactly (labelColumn STRING, valueColumn
	// FLOAT) — takes the positional fast path; any other schema goes
	// through the map path, which preserves LoadObservations' semantics
	// for columns the stream does not provide.
	schema := t.Schema()
	positional := labelColumn != "" && len(schema) == 2 &&
		schema[0].Name == labelColumn && schema[1].Name == valueColumn
	vals := make([]sqlparse.Value, 2)
	attrs := make(map[string]sqlparse.Value, 2) // reused: Append does not retain it
	for i, o := range obs {
		if positional {
			vals[0] = sqlparse.StringValue(o.EntityID)
			vals[1] = sqlparse.Number(o.Value)
			err = w.AppendRow(o.EntityID, o.Source, vals)
		} else {
			attrs[valueColumn] = sqlparse.Number(o.Value)
			if labelColumn != "" {
				attrs[labelColumn] = sqlparse.StringValue(o.EntityID)
			}
			err = w.Append(o.EntityID, o.Source, attrs)
		}
		if err != nil {
			return conflicts, err
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err = flushCounted(w, &conflicts); err != nil {
				return conflicts, err
			}
		}
	}
	err = flushCounted(w, &conflicts)
	return conflicts, err
}

// flushCounted is Writer.Flush with the loaders' accounting: a failed
// push (its rows were not staged) is returned as the load's error, while
// the barrier's apply errors are added to *conflicts.
func flushCounted(w *Writer, conflicts *int) error {
	if err := w.pushAll(); err != nil {
		return err
	}
	*conflicts += countConflicts(w.t.Flush())
	return nil
}

// countConflicts counts the individual errors inside a (possibly joined)
// Flush error; nil counts zero. A dropped-errors summary (apply errors
// beyond the recording cap) contributes its exact count.
func countConflicts(err error) int {
	if err == nil {
		return 0
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		n := 0
		for _, e := range joined.Unwrap() {
			n += countConflicts(e)
		}
		return n
	}
	if dropped, ok := err.(droppedIngestErrors); ok {
		return dropped.n
	}
	return 1
}

// LoadCSVTable creates a table from a CSV observation file: a fresh table
// named tableName with columns "name" (STRING) and valueColumn (FLOAT) is
// created in db and filled from the stream. Returns the table and the
// number of value conflicts.
func LoadCSVTable(db *DB, tableName, valueColumn string, r io.Reader, opts csvio.Options) (*Table, int, error) {
	obs, err := csvio.ReadObservations(r, opts)
	if err != nil {
		return nil, 0, err
	}
	t, err := db.CreateTable(tableName, Schema{
		{Name: "name", Type: TypeString},
		{Name: valueColumn, Type: TypeFloat},
	})
	if err != nil {
		return nil, 0, err
	}
	conflicts, err := LoadObservations(t, obs, valueColumn, "name")
	if err != nil {
		return nil, 0, err
	}
	return t, conflicts, nil
}
