package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

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

func cursorDecodeLine(line []byte, n int) (decodedRow, error) {
	b := batchPool.Get().(*ingestBatch)
	defer b.release()
	if err := b.decodeLine(line, n); err != nil {
		return decodedRow{}, err
	}
	r := b.rows[0]
	return decodedRow{r.entity, r.source, b.attrMap(nil, r)}, nil
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

// checkLineParity requires both decoders to accept or reject line alike,
// with the same rows (floats bit for bit) or the same error.
func checkLineParity(t *testing.T, line []byte) {
	t.Helper()
	want, werr := referenceDecodeLine(line, 7)
	got, gerr := cursorDecodeLine(line, 7)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%q: reference err %v, cursor err %v", line, werr, gerr)
	case werr != nil:
		if !sameError(line, werr, gerr) {
			t.Fatalf("%q: reference error %q, cursor error %q", line, werr, gerr)
		}
	case !sameRow(want, got):
		t.Fatalf("%q: reference %+v, cursor %+v", line, want, got)
	}
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
// like the reflective handler, and to reject the first row without an
// entity or source.
func checkBodyParity(t *testing.T, body []byte) {
	t.Helper()
	want, werr := referenceDecodeBody(body)
	if err := missingIdentity(want); err != nil {
		werr = err
	}
	b, gerr := decodeIngest(bytes.NewReader(body))
	if gerr == nil {
		defer b.release()
	}
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%q: reference err %v, cursor err %v", body, werr, gerr)
	case werr != nil:
		if werr.Error() != gerr.Error() && !sameAttrErrLine(werr, gerr) {
			t.Fatalf("%q: reference error %q, cursor error %q", body, werr, gerr)
		}
		return
	}
	if len(b.rows) != len(want) {
		t.Fatalf("%q: reference %d rows, cursor %d", body, len(want), len(b.rows))
	}
	var m map[string]sqlparse.Value
	for i, r := range b.rows {
		m = b.attrMap(m, r)
		if got := (decodedRow{r.entity, r.source, m}); !sameRow(want[i], got) {
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
	for _, body := range bodies {
		checkBodyParity(t, []byte(body))
	}
	for _, line := range parityLines {
		checkBodyParity(t, []byte(line+"\n"+row))
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
		checkBodyParity(t, data)
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
// per-line decoder and with the cursor decoder.
func BenchmarkIngestDecode(b *testing.B) {
	body := ingestBody(500)
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
			batch, err := decodeIngest(bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var m map[string]sqlparse.Value
			for _, r := range batch.rows {
				m = batch.attrMap(m, r)
			}
			batch.release()
		}
	})
}
