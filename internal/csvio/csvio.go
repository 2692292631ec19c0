// Package csvio reads and writes observation streams as CSV, the lingua
// franca of data-integration pipelines. A CSV observation file has one row
// per (entity, value, source) data item — the exact input the estimators
// consume — plus a header naming the columns. Files produced by
// WriteObservations round-trip through ReadObservations.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/freqstats"
)

// Options configures CSV column mapping.
type Options struct {
	// EntityColumn, ValueColumn and SourceColumn name the columns holding
	// the entity identifier, numeric attribute value and source
	// identifier. Empty strings mean the defaults "entity", "value" and
	// "source".
	EntityColumn string
	ValueColumn  string
	SourceColumn string
}

func (o Options) entity() string {
	if o.EntityColumn == "" {
		return "entity"
	}
	return o.EntityColumn
}

func (o Options) value() string {
	if o.ValueColumn == "" {
		return "value"
	}
	return o.ValueColumn
}

func (o Options) source() string {
	if o.SourceColumn == "" {
		return "source"
	}
	return o.SourceColumn
}

// ReadObservations parses a CSV observation file. The first row must be a
// header containing (at least) the three mapped columns; extra columns are
// ignored. Rows arrive in file order, which is treated as arrival order.
func ReadObservations(r io.Reader, opts Options) ([]freqstats.Observation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true

	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("csvio: empty input (missing header)")
	}
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	idxEntity, ok := col[opts.entity()]
	if !ok {
		return nil, fmt.Errorf("csvio: header missing entity column %q", opts.entity())
	}
	idxValue, ok := col[opts.value()]
	if !ok {
		return nil, fmt.Errorf("csvio: header missing value column %q", opts.value())
	}
	idxSource, ok := col[opts.source()]
	if !ok {
		return nil, fmt.Errorf("csvio: header missing source column %q", opts.source())
	}

	var out []freqstats.Observation
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		v, err := strconv.ParseFloat(rec[idxValue], 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: value %q is not numeric", line, rec[idxValue])
		}
		obs := freqstats.Observation{
			EntityID: rec[idxEntity],
			Value:    v,
			Source:   rec[idxSource],
		}
		if obs.EntityID == "" {
			return nil, fmt.Errorf("csvio: line %d: empty entity", line)
		}
		if obs.Source == "" {
			return nil, fmt.Errorf("csvio: line %d: empty source", line)
		}
		out = append(out, obs)
	}
	return out, nil
}

// WriteObservations writes observations as CSV with the mapped header.
func WriteObservations(w io.Writer, obs []freqstats.Observation, opts Options) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{opts.entity(), opts.value(), opts.source()}); err != nil {
		return fmt.Errorf("csvio: writing header: %w", err)
	}
	for i, o := range obs {
		rec := []string{o.EntityID, strconv.FormatFloat(o.Value, 'g', -1, 64), o.Source}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csvio: writing row %d: %w", i+1, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
