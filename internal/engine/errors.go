package engine

import (
	"errors"
	"fmt"
)

// Structured error taxonomy. Engine errors historically were stringly
// typed (fmt.Errorf all the way down), which left callers — above all a
// network server that must turn failures into HTTP status codes —
// matching on substrings. Every user-addressable failure mode now wraps
// one of the sentinel errors below, so callers classify with errors.Is
// and the rendered messages stay exactly what they always were (the
// sentinels are phrased so that %w slots into the existing text).
//
//	errors.Is(err, engine.ErrUnknownTable)  // query/subscribe/drop of an unregistered table
//	errors.Is(err, engine.ErrUnknownColumn) // predicate, aggregate, GROUP BY or insert column miss
//	errors.Is(err, engine.ErrTableExists)   // CreateTable/Load name collision
//	errors.Is(err, engine.ErrConflict)      // entity re-reported with different values
//	errors.Is(err, engine.ErrParse)         // SQL front-end rejected the query text
//	errors.Is(err, engine.ErrInvalidRow)    // appended row is malformed (empty ID, wrong value type)
//
// The taxonomy is deliberately small: it classifies what a *caller* can
// act on (retry, fix the query, fix the data), not where inside the
// engine the failure happened.
var (
	// ErrUnknownTable reports a query, subscription, diagnosis or drop
	// against a table name the catalog does not hold.
	ErrUnknownTable = errors.New("unknown table")

	// ErrUnknownColumn reports a reference — in a predicate, aggregate,
	// GROUP BY or inserted attribute map — to a column the schema does
	// not have (or has with an unusable type, e.g. aggregating a string
	// column).
	ErrUnknownColumn = errors.New("unknown column")

	// ErrTableExists reports a CreateTable or snapshot Load whose table
	// name is already registered.
	ErrTableExists = errors.New("already exists")

	// ErrConflict reports an entity re-reported with attribute values
	// that differ from its first report (unclean input). The observation
	// still counted — the first value wins — so ErrConflict is a data
	// quality warning, not a failed write.
	ErrConflict = errors.New("conflicting values")

	// ErrParse marks SQL front-end failures. It is only ever seen through
	// errors.Is: the concrete error is a *ParseError carrying the
	// sqlparse message verbatim.
	ErrParse = errors.New("invalid SQL")

	// ErrSegmentLimit reports a disk-tier segment that cannot be written
	// because a string column's dictionary would overflow the format's
	// uint32 offset bound. The rows stay served from memory (fail safe);
	// the caller can split the load into smaller batches.
	ErrSegmentLimit = errors.New("segment limit exceeded")

	// ErrInvalidRow reports an inserted or appended row the caller must
	// fix: an empty entity ID or source, or an attribute value whose type
	// does not match its column. Nothing of the row was stored. Like
	// ErrParse it is only seen through errors.Is; the message is the
	// validation error's own.
	ErrInvalidRow = errors.New("invalid row")
)

// invalidRowError classifies a row-validation error as ErrInvalidRow
// without changing its rendered message.
type invalidRowError struct{ err error }

func (e invalidRowError) Error() string { return e.err.Error() }

func (e invalidRowError) Unwrap() error { return e.err }

func (e invalidRowError) Is(target error) bool { return target == ErrInvalidRow }

// invalidRowf formats a row-validation error that matches ErrInvalidRow.
func invalidRowf(format string, args ...any) error {
	return invalidRowError{fmt.Errorf(format, args...)}
}

// ParseError wraps a SQL front-end error (sqlparse.Parse and friends) so
// engine callers can classify it with errors.Is(err, ErrParse) while the
// message stays the parser's own. Unwrap exposes the underlying parser
// error for errors.As chains.
type ParseError struct {
	Err error
}

func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap returns the underlying parser error.
func (e *ParseError) Unwrap() error { return e.Err }

// Is reports target == ErrParse, making every ParseError match the
// sentinel without the sentinel appearing in the rendered message.
func (e *ParseError) Is(target error) bool { return target == ErrParse }

// wrapParse classifies a SQL front-end error (nil passes through).
func wrapParse(err error) error {
	if err == nil {
		return nil
	}
	return &ParseError{Err: err}
}
