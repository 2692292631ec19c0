package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// ingestRow is one NDJSON line as the reflective decoder saw it; with
// decodeAttr it is the parity oracle for the cursor decoder in ndjson.go.
type ingestRow struct {
	Entity string                     `json:"entity"`
	Source string                     `json:"source"`
	Attrs  map[string]json.RawMessage `json:"attrs"`
}

func decodeAttr(raw json.RawMessage) (sqlparse.Value, error) {
	var v any
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return sqlparse.Value{}, err
	}
	switch x := v.(type) {
	case nil:
		return sqlparse.Null(), nil
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return sqlparse.Value{}, err
		}
		return sqlparse.Number(f), nil
	case string:
		return sqlparse.StringValue(x), nil
	case bool:
		return sqlparse.BoolValue(x), nil
	default:
		return sqlparse.Value{}, fmt.Errorf("unsupported attribute value %s", string(raw))
	}
}

// decodedRow is one decoded line in comparable form.
type decodedRow struct {
	entity, source string
	attrs          map[string]sqlparse.Value
}

// referenceDecodeLine is the reflective per-line decode: json.Unmarshal
// into ingestRow, then every attribute through decodeAttr, with the
// error text the handler reported for line n.
func referenceDecodeLine(line []byte, n int) (decodedRow, error) {
	var row ingestRow
	if err := json.Unmarshal(line, &row); err != nil {
		return decodedRow{}, fmt.Errorf("line %d: %v", n, err)
	}
	attrs := make(map[string]sqlparse.Value, len(row.Attrs))
	for k, raw := range row.Attrs {
		v, err := decodeAttr(raw)
		if err != nil {
			return decodedRow{}, fmt.Errorf("line %d, attribute %q: %v", n, k, err)
		}
		attrs[k] = v
	}
	return decodedRow{row.Entity, row.Source, attrs}, nil
}

// referenceDecodeBody splits and trims a body the way the reflective
// handler did and decodes each line with referenceDecodeLine. On error
// it returns the rows before the failing line.
func referenceDecodeBody(body []byte) ([]decodedRow, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	var rows []decodedRow
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		row, err := referenceDecodeLine([]byte(line), len(rows)+1)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// paritySchema is the table every line and body is also decoded for:
// its columns cover attribute names of parityLines with one type each, so
// lines both pass and fail it.
var paritySchema = engine.Schema{
	{Name: "v", Type: engine.TypeFloat}, {Name: "name", Type: engine.TypeString},
	{Name: "ok", Type: engine.TypeBool}, {Name: "a", Type: engine.TypeFloat}, {Name: "s", Type: engine.TypeString},
}

// fittedSchema returns a schema with one column per attribute of r, typed
// by its value (string for NULL), so r passes it; ok is false when r has
// no attribute or one with an empty name, which no table can hold.
func fittedSchema(r decodedRow) (engine.Schema, bool) {
	var schema engine.Schema
	for name, v := range r.attrs {
		if name == "" {
			return nil, false
		}
		typ := engine.TypeString
		switch v.Kind {
		case sqlparse.ValueNumber:
			typ = engine.TypeFloat
		case sqlparse.ValueBool:
			typ = engine.TypeBool
		}
		schema = append(schema, engine.Column{Name: name, Type: typ})
	}
	slices.SortFunc(schema, func(a, b engine.Column) int { return strings.Compare(a.Name, b.Name) })
	return schema, len(schema) > 0
}

// validate is the schema oracle: the error engine.Writer.Append gives
// row n on a throwaway table of the schema, with the handler's line
// prefix. The Writer is never flushed, so nothing is applied.
func validate(t testing.TB, schema engine.Schema, r decodedRow, n int) error {
	t.Helper()
	tbl, err := engine.NewTable("obs", schema)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if err := tbl.NewWriter().Append(r.entity, r.source, r.attrs); err != nil {
		return fmt.Errorf("line %d: %w", n, err)
	}
	return nil
}

// referenceLine is the reflective decode of line n plus the engine's
// schema check of a row that names its entity and source.
func referenceLine(t testing.TB, schema engine.Schema, line []byte, n int) (decodedRow, error) {
	r, err := referenceDecodeLine(line, n)
	if err == nil && r.entity != "" && r.source != "" {
		err = validate(t, schema, r, n)
	}
	return r, err
}

// cursorLine decodes line n with the cursor for the schema, plus the
// schema check of a row that names its entity and source.
func cursorLine(schema engine.Schema, line []byte, n int) (decodedRow, error) {
	b := batchPool.Get().(*ingestBatch)
	defer b.release()
	b.table, b.schema = "obs", schema
	if err := b.decodeLine(line, n); err != nil {
		return decodedRow{}, err
	}
	r := positionalRow(b, 0)
	if r.entity == "" || r.source == "" {
		return r, nil
	}
	return r, b.schemaErr(n)
}

// positionalRow returns row i of the batch with its carried cells keyed
// by column name.
func positionalRow(b *ingestBatch, i int) decodedRow {
	vals, provided := b.cells(i)
	attrs := make(map[string]sqlparse.Value)
	for ci, col := range b.schema {
		if provided[ci] {
			attrs[col.Name] = vals[ci]
		}
	}
	return decodedRow{b.rows[i].entity, b.rows[i].source, attrs}
}

// ambiguousAttrErr reports whether more than one attribute of line is
// unusable. The reference then names whichever its map iteration met
// first, so only the kind of error is comparable.
func ambiguousAttrErr(line []byte) bool {
	var row ingestRow
	if json.Unmarshal(line, &row) != nil {
		return false
	}
	bad := 0
	for _, raw := range row.Attrs {
		if _, err := decodeAttr(raw); err != nil {
			bad++
		}
	}
	return bad > 1
}

func sameRow(a, b decodedRow) bool {
	if a.entity != b.entity || a.source != b.source || len(a.attrs) != len(b.attrs) {
		return false
	}
	for k, va := range a.attrs {
		vb, ok := b.attrs[k]
		if !ok || va.Kind != vb.Kind || va.Str != vb.Str || va.Bool != vb.Bool ||
			math.Float64bits(va.Num) != math.Float64bits(vb.Num) {
			return false
		}
	}
	return true
}

func sameError(line []byte, want, got error) bool {
	if want.Error() == got.Error() {
		return true
	}
	return sameAttrErrLine(want, got) && ambiguousAttrErr(line)
}

// sameKind reports whether two errors are classified alike: both or
// neither an engine.ErrInvalidRow, and likewise engine.ErrUnknownColumn.
func sameKind(want, got error) bool {
	for _, kind := range []error{engine.ErrInvalidRow, engine.ErrUnknownColumn} {
		if errors.Is(want, kind) != errors.Is(got, kind) {
			return false
		}
	}
	return true
}

// lineSchemas returns the schemas line is checked against: paritySchema,
// and one the line's row fits when the reference decodes it.
func lineSchemas(line []byte) []engine.Schema {
	schemas := []engine.Schema{paritySchema}
	if r, err := referenceDecodeLine(line, 1); err == nil {
		if fitted, ok := fittedSchema(r); ok {
			schemas = append(schemas, fitted)
		}
	}
	return schemas
}

// checkLineParity requires both decoders to accept or reject line alike
// for each of its lineSchemas, with the same row (floats bit for bit) or
// the same error.
func checkLineParity(t *testing.T, line []byte) {
	t.Helper()
	for _, schema := range lineSchemas(line) {
		want, werr := referenceLine(t, schema, line, 7)
		got, gerr := cursorLine(schema, line, 7)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("%q %v: reference err %v, cursor err %v", line, schema, werr, gerr)
		case werr != nil:
			if !sameError(line, werr, gerr) || !sameKind(werr, gerr) {
				t.Fatalf("%q %v: reference error %q, cursor error %q", line, schema, werr, gerr)
			}
		case !sameRow(columnsOf(want, schema), got):
			t.Fatalf("%q %v: reference %+v, cursor %+v", line, schema, want, got)
		}
	}
}

// columnsOf returns r without its attributes that are no column of the
// schema: a row without an entity or source is not schema-checked, and
// its cells hold only the attributes that are.
func columnsOf(r decodedRow, schema engine.Schema) decodedRow {
	attrs := make(map[string]sqlparse.Value)
	for _, col := range schema {
		if v, ok := r.attrs[col.Name]; ok {
			attrs[col.Name] = v
		}
	}
	return decodedRow{r.entity, r.source, attrs}
}

// missingIdentity is the error for the first row without an entity or
// source, which the engine rejects.
func missingIdentity(rows []decodedRow) error {
	for i, r := range rows {
		if r.entity == "" {
			return fmt.Errorf("line %d: empty entity ID", i+1)
		}
		if r.source == "" {
			return fmt.Errorf("line %d: empty source", i+1)
		}
	}
	return nil
}

// sameAttrErrLine reports whether two errors both reject the same line
// for an attribute value, perhaps naming different attributes.
func sameAttrErrLine(want, got error) bool {
	w, _, okw := strings.Cut(want.Error(), ", attribute ")
	g, _, okg := strings.Cut(got.Error(), ", attribute ")
	return okw && okg && w == g
}

// checkBodyParity requires decodeIngest to split, trim and decode a body
// for the schema like the reflective handler, to reject the first row
// without an entity or source, and, failing that, the first row the
// engine rejects for the schema — after every syntax error.
func checkBodyParity(t *testing.T, schema engine.Schema, body []byte) {
	t.Helper()
	want, werr := referenceDecodeBody(body)
	if err := missingIdentity(want); err != nil {
		werr = err
	}
	if werr == nil {
		for i, r := range want {
			if werr = validate(t, schema, r, i+1); werr != nil {
				break
			}
		}
	}
	b, gerr := decodeIngest(bytes.NewReader(body), "obs", schema)
	if gerr == nil {
		defer b.release()
	}
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%q %v: reference err %v, cursor err %v", body, schema, werr, gerr)
	case werr != nil:
		if (werr.Error() == gerr.Error() || sameAttrErrLine(werr, gerr)) && sameKind(werr, gerr) {
			return
		}
		t.Fatalf("%q %v: reference error %q, cursor error %q", body, schema, werr, gerr)
	}
	if len(b.rows) != len(want) {
		t.Fatalf("%q: reference %d rows, cursor %d", body, len(want), len(b.rows))
	}
	for i := range b.rows {
		if got := positionalRow(b, i); !sameRow(want[i], got) {
			t.Fatalf("%q row %d: reference %+v, cursor %+v", body, i+1, want[i], got)
		}
	}
}

// parityLines are the decoding contract's cases, one line each.
var parityLines = []string{
	`{"entity":"e1","source":"s1","attrs":{"v":1.5,"name":"x","ok":true,"off":false,"n":null}}`,
	` { "entity" : "e1" ,	"source":"s1" , "attrs" : { "v" : -2 } } `,
	"{\"entity\":\"e1\",\r\n\"source\":\"s1\"}",
	// Field names: exact first, then folded.
	`{"Entity":"a","ſource":"b","ATTRS":{"x":1}}`,
	`{"ENTITY":"a","SOURCE":"b","Attrs":null}`,
	`{"eNtItY":"q","entity":"z"}`,
	`{"entity":"z","eNtItY":"q"}`,
	`{"entity":"a","source":"b","attrs":{"v":1}}`,
	`{"entıty":"dotless i does not fold to i"}`,
	`{"entity":"a","source":"b","attrs":{"K":1,"k":2}}`,
	// Unknown keys and their nested values are skipped.
	`{"entity":"a","extra":{"n":[1,{"q":"}]\""}],"s":"{"},"source":"b","x":[],"y":-0.5e+3,"z":true,"w":null}`,
	// null leaves a field as it was.
	`{"entity":null,"source":"s"}`,
	`{"entity":"a","entity":null}`,
	`{"source":"a","source":null,"source":"b"}`,
	// Non-string entity or source.
	`{"entity":5}`, `{"entity":{}}`, `{"entity":[1]}`, `{"source":true}`, `{"source":false}`,
	`{"entity":"a","source":{"x":1},"attrs":{"v":{}}}`,
	`{"attrs":{"v":{}},"entity":1}`,
	// attrs: null, merges, clears, repeats.
	`{"attrs":null}`, `{"attrs":{}}`,
	`{"attrs":{"a":1},"attrs":{"b":2}}`,
	`{"attrs":{"a":1},"attrs":null}`,
	`{"attrs":{"a":1},"attrs":null,"attrs":{"b":2}}`,
	`{"attrs":{"a":1,"a":"two"}}`,
	`{"attrs":{"a":{},"a":1}}`,
	`{"attrs":{"a":1e400},"attrs":{"a":1}}`,
	`{"attrs":{"a":[1]}},"attrs":null}`,
	`{"attrs":{"a":[1]},"attrs":null}`,
	`{"attrs":{"a":1,"b":{}},"attrs":{"a":{}}}`,
	`{"attrs":"x"}`, `{"attrs":[1]}`, `{"attrs":5}`, `{"attrs":true}`,
	`{"attrs":{"a":{}},"attrs":5}`,
	// Top level must be an object; null is an empty row.
	`null`, `[1]`, `"x"`, `5`, `true`, `false`, `[]`,
	// Unsupported attribute values.
	`{"attrs":{"o":{"a":1}}}`, `{"attrs":{"o":[ 1, 2 ]}}`, `{"attrs":{"o":{}, "p":[]}}`,
	// Numbers.
	`{"attrs":{"v":1e400}}`, `{"attrs":{"v":-1e400}}`, `{"attrs":{"v":1e-400}}`,
	`{"attrs":{"v":-0}}`, `{"attrs":{"v":0.1}}`, `{"attrs":{"v":4.9e-324}}`,
	`{"attrs":{"v":123456789012345678901234567890}}`, `{"attrs":{"v":1.7976931348623157e308}}`,
	`{"attrs":{"v":2.2250738585072011e-308,"w":1E+2,"x":-1e-2}}`,
	// Escapes, surrogates and invalid UTF-8.
	`{"entity":"a\"b\\c\/d\n\té","source":"s"}`,
	`{"attrs":{"v":"😀","w":"😀"}}`,
	`{"entity":"\ud800","source":"\udc00x","attrs":{"s":"\ud800A"}}`,
	"{\"entity\":\"a\xffb\",\"source\":\"s\xc3\"}",
	"{\"attrs\":{\"k\xfe\":\"v\xed\xa0\x80\"}}",
	"{\"entity\":\"\xef\xbf\xbd\",\"source\":\"ok\"}",
	// Syntax errors keep encoding/json's message.
	`{"entity":"a",}`, `{"entity":"a"} x`, `{entity:1}`, `{"a":tru}`, `{"a":01}`,
	"{\"a\":\"\x01\"}", `{"a":1`, `[`, `{"a":"\x"}`, `}`, `nul`,
	"{\"entity\": \"a\"}", "{\"entity\":\v\"a\"}",
}

func TestIngestLineParity(t *testing.T) {
	for _, line := range parityLines {
		checkLineParity(t, []byte(line))
	}
}

func TestIngestBodyParity(t *testing.T) {
	row := `{"entity":"e1","source":"s1","attrs":{"v":1}}`
	other := `{"entity":"e2","source":"s2","attrs":{"v":"x"}}`
	bodies := []string{
		row + "\r\n" + other + "\r\n",
		row + "\n\n   \n\t\n" + other,
		" " + row + " \n\v" + other + "\v\f\n",
		" \n" + row + "\n \n",
		row + "\n" + `{"entity":"e3"}` + "\n",
		row + "\n" + `{"source":"s3"}` + "\n",
		row + "\nnull\n",
		row + "\n\n" + `{"entity":"e3","attrs":{"v":{}}}`,
		row + "\n" + `{"entity":"e3",` + "\n",
		"", "\n\n", " ",
	}
	for _, schema := range []engine.Schema{paritySchema, {{Name: "v", Type: engine.TypeString}}} {
		for _, body := range bodies {
			checkBodyParity(t, schema, []byte(body))
		}
		for _, line := range parityLines {
			checkBodyParity(t, schema, []byte(line+"\n"+row))
			checkBodyParity(t, schema, []byte(row+"\n"+line+"\n"+other))
		}
	}
}

// FuzzIngestLineParity runs arbitrary bytes through both decoders, as a
// line and as a body.
func FuzzIngestLineParity(f *testing.F) {
	for _, line := range parityLines {
		f.Add([]byte(line))
	}
	f.Add([]byte("{\"entity\":\"a\",\"source\":\"b\"}\r\n\n{\"entity\":\"c\",\"source\":\"d\",\"attrs\":{\"v\":2}}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if line := bytes.TrimSpace(data); len(line) > 0 {
			checkLineParity(t, line)
		}
		checkBodyParity(t, paritySchema, data)
	})
}

// cursorValid is the cursor's verdict on data as one line: whether
// decoding it found it well-formed.
func cursorValid(data []byte) bool {
	b := batchPool.Get().(*ingestBatch)
	defer b.release()
	b.schema = paritySchema
	_, ok := b.walkLine(data)
	return ok
}

// FuzzCursorValid requires the cursor to accept exactly the byte strings
// json.Valid accepts.
func FuzzCursorValid(f *testing.F) {
	for _, line := range parityLines {
		f.Add([]byte(line))
	}
	for _, seed := range []string{
		`"\x"`, `"\u12"`, `"\u12g4"`, `"\uD800"`, `"\udc00\ud800"`, `"a\`, `"\`, `"abc`,
		"\"\x00\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\"", "\"\xed\xa0\x80\"", "{\"\xc3\":1}",
		`-`, `-0`, `01`, `-01`, `1.`, `.5`, `1e`, `1e+`, `1E-5`, `1e400`, `+1`, `0x10`, `1.5e3.2`,
		`tru`, `truex`, `nul`, `nulll`, `fals`, `True`,
		`[`, `]`, `[1,]`, `[,1]`, `{"a":1,}`, `{"a" 1}`, `{"a":}`, `{1:2}`, `{"a":1 "b":2}`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"attrs":` + strings.Repeat(`{"a":`, 9998) + "1" + strings.Repeat("}", 9999),
		`{"attrs":` + strings.Repeat(`{"a":`, 9999) + "1" + strings.Repeat("}", 10000),
		`{} x`, `{}}`, `1 2`, `null null`, "{}\v", " {} ", "", " ", "\t\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := cursorValid(data), json.Valid(data); got != want {
			t.Fatalf("%q: cursor valid %v, json.Valid %v", data, got, want)
		}
	})
}

// ingestBody renders a body shaped like the serve-ingest workload's.
func ingestBody(rows int) []byte {
	var b []byte
	for i := 0; i < rows; i++ {
		b = fmt.Appendf(b, `{"entity":"item-%06d","source":"src-%02d","attrs":{"region":"r-%03d","v":%g}}`+"\n",
			i*7919%200000, i%24, i%256, float64(i)*1.37)
	}
	return b
}

// BenchmarkIngestDecode decodes a 500-row body with the reflective
// per-line decoder and with the cursor decoder, which decodes into the
// schema positions of the serve-ingest table.
func BenchmarkIngestDecode(b *testing.B) {
	body := ingestBody(500)
	schema := engine.Schema{{Name: "region", Type: engine.TypeString}, {Name: "v", Type: engine.TypeFloat}}
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := referenceDecodeBody(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cursor", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			batch, err := decodeIngest(bytes.NewReader(body), "obs", schema)
			if err != nil {
				b.Fatal(err)
			}
			batch.release()
		}
	})
}
