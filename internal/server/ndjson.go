package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/sqlparse"
)

// NDJSON ingest decoding, in one pass per line and with no reflection. A
// small cursor checks the JSON syntax as it walks, rejecting exactly what
// json.Valid rejects (encoding/json only renders the positioned error of
// a line that fails), and decodes the row as it goes: the three row
// fields are read directly, anything else is skipped. The result is
// exactly what decoding into
//
//	struct {
//		Entity string                     `json:"entity"`
//		Source string                     `json:"source"`
//		Attrs  map[string]json.RawMessage `json:"attrs"`
//	}
//
// and then each attribute with UseNumber produced: field names match
// exactly, then under encoding/json's case folding; null leaves a field
// as it was; a repeated "attrs" merges into the earlier one and a later
// null clears it; a repeated attribute name keeps its last value; invalid
// UTF-8 becomes U+FFFD; numbers go through the strconv.ParseFloat call
// json.Number.Float64 makes, so the bits are the same. Error messages
// are the ones that decoding produced, type errors included.
//
// Attributes land straight in the target table's schema positions: each
// attribute name is resolved to its column once per request, and each
// row's final values are checked against their columns' types. A row the
// schema rejects (a wrong type, an unknown column) fails the request with
// the error the engine gives it, before anything is staged. A syntax or
// decoding error anywhere in the body takes precedence over a schema
// error.

// ingestBatch is one request body, decoded in full before any row is
// staged, so a rejected line rejects the batch with nothing applied.
// Batches are pooled; release returns one.
type ingestBatch struct {
	table  string
	schema engine.Schema
	rows   []ingestLine
	// vals and provided hold each row's cells in schema order,
	// len(schema) per row; provided[i] reports whether the row carries
	// cell i.
	vals     []sqlparse.Value
	provided []bool
	// cols resolves attribute names to column indexes (-1 for a name
	// that is no column) for the current request.
	cols map[string]int
	// The current line's state. bad lists its attributes whose value no
	// column can hold (an object, an array or an out-of-range number);
	// such a value rejects the line unless a later attribute of the same
	// name replaces it. unknown is its smallest attribute name that is no
	// column (nil if none; the name may be empty), the one the engine's
	// error names too, and fieldErr its first row field of the wrong JSON
	// type.
	bad      []badAttr
	unknown  *string
	fieldErr error
	// strs interns sources and string values within the request: they
	// repeat from row to row, and a hit allocates nothing.
	strs map[string]string
	// scan is the line scanner's initial buffer.
	scan []byte
}

// ingestLine is one decoded observation; its cells are the batch's
// cells(i).
type ingestLine struct {
	entity, source string
}

// badAttr is an unusable attribute value: of column col, or of the
// unknown attribute name when col is -1.
type badAttr struct {
	col  int
	name string
	err  error
}

// schemaError is a row the table's schema rejects, carrying the engine's
// message and classification (engine.ErrInvalidRow or
// engine.ErrUnknownColumn).
type schemaError struct {
	msg  string
	kind error
}

func (e schemaError) Error() string { return e.msg }
func (e schemaError) Unwrap() error { return e.kind }

const (
	// maxLineBytes bounds one NDJSON line.
	maxLineBytes = 4 << 20
	// maxPooledCells and maxPooledStrs keep the batches of unusually
	// large bodies out of the pool.
	maxPooledCells = 1 << 16
	maxPooledStrs  = 1 << 12
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
)

var batchPool = sync.Pool{New: func() any {
	return &ingestBatch{cols: make(map[string]int), strs: make(map[string]string), scan: make([]byte, 64<<10)}
}}

// release empties the batch, so the pool holds no request's strings, and
// returns it to the pool.
func (b *ingestBatch) release() {
	if cap(b.vals) > maxPooledCells || len(b.strs) > maxPooledStrs {
		return
	}
	clear(b.rows)
	clear(b.vals)
	clear(b.bad)
	clear(b.cols)
	clear(b.strs)
	b.rows, b.vals, b.provided, b.bad = b.rows[:0], b.vals[:0], b.provided[:0], b.bad[:0]
	b.schema, b.unknown, b.fieldErr = nil, nil, nil
	batchPool.Put(b)
}

// decodeIngest decodes an NDJSON body for the named table with the given
// schema. Blank and whitespace-only lines are skipped; line numbers in
// errors count the lines that are not. Every row must name its entity
// and source. A schema error is a schemaError. The caller releases the
// batch.
func decodeIngest(body io.Reader, table string, schema engine.Schema) (*ingestBatch, error) {
	b := batchPool.Get().(*ingestBatch)
	b.table, b.schema = table, schema
	if err := b.decode(body); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// cells returns row i's values and provided flags in schema order.
func (b *ingestBatch) cells(i int) ([]sqlparse.Value, []bool) {
	w := len(b.schema)
	return b.vals[i*w : (i+1)*w], b.provided[i*w : (i+1)*w]
}

func (b *ingestBatch) decode(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(b.scan, maxLineBytes)
	var schemaErr error
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		n := len(b.rows) + 1
		if err := b.decodeLine(line, n); err != nil {
			return err
		}
		switch row := &b.rows[n-1]; {
		case row.entity == "":
			return fmt.Errorf("line %d: empty entity ID", n)
		case row.source == "":
			return fmt.Errorf("line %d: empty source", n)
		}
		if schemaErr == nil {
			schemaErr = b.schemaErr(n)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return schemaErr
}

// decodeLine decodes one non-blank line as row n of the batch.
func (b *ingestBatch) decodeLine(line []byte, n int) error {
	row, ok := b.walkLine(line)
	if !ok {
		// Only the failure path pays for encoding/json's positioned
		// syntax error.
		return fmt.Errorf("line %d: %v", n, json.Unmarshal(line, new(json.RawMessage)))
	}
	if b.fieldErr != nil {
		return fmt.Errorf("line %d: %v", n, b.fieldErr)
	}
	if len(b.bad) > 0 {
		return fmt.Errorf("line %d, %v", n, b.bad[0].err)
	}
	b.rows = append(b.rows, row)
	return nil
}

// walkLine decodes line into a row, whose cells it appends to the
// batch's, and into the batch's line state. It reports whether line is
// well-formed JSON, as json.Valid would.
func (b *ingestBatch) walkLine(line []byte) (ingestLine, bool) {
	w := len(b.schema)
	lo := len(b.vals)
	b.vals = append(b.vals, make([]sqlparse.Value, w)...)
	b.provided = append(b.provided, make([]bool, w)...)
	b.bad, b.unknown, b.fieldErr = b.bad[:0], nil, nil
	var row ingestLine
	c := cursor{buf: line}
	switch first := c.ws(); first {
	case '{':
		b.object(&c, &row, lo)
	case 'n':
		// A null line decodes to an empty row, as it does into a struct.
		c.literal("null")
	default:
		b.typeErr(fmt.Errorf("json: cannot unmarshal %s into Go value of type server.ingestRow", kindOf(first)))
		c.skip()
	}
	c.ws() // only whitespace may follow the value
	return row, !c.bad && c.i == len(c.buf)
}

// typeErr records a row field of the wrong JSON type; the first one is
// the line's error unless the line turns out to be malformed.
func (b *ingestBatch) typeErr(err error) {
	if b.fieldErr == nil {
		b.fieldErr = err
	}
}

// schemaErr returns the error the engine gives the last decoded row, line
// n: its first carried cell, in schema order, of a type the column cannot
// hold, else an attribute that is no column.
func (b *ingestBatch) schemaErr(n int) error {
	i := len(b.rows) - 1
	vals, provided := b.cells(i)
	entity := b.rows[i].entity
	for ci, col := range b.schema {
		if v := vals[ci]; provided[ci] && !fits(col.Type, v.Kind) {
			return schemaError{fmt.Sprintf("line %d: engine: %s: entity %q: column %q expects %s, got %s",
				n, b.table, entity, col.Name, col.Type, v), engine.ErrInvalidRow}
		}
	}
	if b.unknown != nil {
		return schemaError{fmt.Sprintf("line %d: engine: %s: entity %q: %v %q",
			n, b.table, entity, engine.ErrUnknownColumn, *b.unknown), engine.ErrUnknownColumn}
	}
	return nil
}

// fits reports whether a column of type t holds a value of kind k.
func fits(t engine.ColumnType, k sqlparse.ValueKind) bool {
	switch k {
	case sqlparse.ValueNull:
		return true
	case sqlparse.ValueNumber:
		return t == engine.TypeFloat
	case sqlparse.ValueString:
		return t == engine.TypeString
	default:
		return t == engine.TypeBool
	}
}

// object decodes the row object at the cursor; the row's cells start at
// lo.
func (b *ingestBatch) object(c *cursor, row *ingestLine, lo int) {
	if !c.open('}') {
		return
	}
	for {
		key, plain := c.key()
		if c.bad {
			return
		}
		v := c.ws()
		switch f := fieldOf(key, plain); f {
		case "entity", "source":
			switch v {
			case '"':
				q, plain := c.str()
				if c.bad {
					return
				}
				if f == "entity" {
					row.entity = string(text(q, plain))
				} else {
					row.source = b.intern(q, plain)
				}
			case 'n':
				c.literal("null")
			default:
				b.typeErr(fmt.Errorf("json: cannot unmarshal %s into Go struct field ingestRow.%s of type string", kindOf(v), f))
				c.skip()
			}
		case "attrs":
			switch v {
			case '{':
				b.attrObject(c, lo)
			case 'n':
				c.literal("null")
				clear(b.provided[lo : lo+len(b.schema)])
				b.bad, b.unknown = b.bad[:0], nil
			default:
				b.typeErr(fmt.Errorf("json: cannot unmarshal %s into Go struct field ingestRow.attrs of type map[string]json.RawMessage", kindOf(v)))
				c.skip()
			}
		default:
			c.skip()
		}
		if !c.next('}') {
			return
		}
	}
}

// attrObject decodes the attributes of the object at the cursor into the
// cells starting at lo.
func (b *ingestBatch) attrObject(c *cursor, lo int) {
	if !c.open('}') {
		return
	}
	for {
		key, plain := c.key()
		if c.bad {
			return
		}
		b.attrValue(c, key, plain, lo)
		if !c.next('}') {
			return
		}
	}
}

// attrValue decodes the value at the cursor of the attribute whose name
// literal is key.
func (b *ingestBatch) attrValue(c *cursor, key []byte, plain bool, lo int) {
	var val sqlparse.Value
	var err error
	switch c.ws() {
	case '"':
		q, plain := c.str()
		if c.bad {
			return
		}
		val = sqlparse.StringValue(b.intern(q, plain))
	case '{', '[':
		start := c.i
		c.skip()
		if c.bad {
			return
		}
		err = fmt.Errorf("attribute %q: unsupported attribute value %s", text(key, plain), c.buf[start:c.i])
	case 't':
		c.literal("true")
		val = sqlparse.BoolValue(true)
	case 'f':
		c.literal("false")
		val = sqlparse.BoolValue(false)
	case 'n':
		c.literal("null")
		val = sqlparse.Null()
	default:
		lit := c.number()
		if c.bad {
			return
		}
		var f float64
		if f, err = strconv.ParseFloat(string(lit), 64); err != nil {
			err = fmt.Errorf("attribute %q: %v", text(key, plain), err)
		}
		val = sqlparse.Number(f)
	}
	col := b.column(key, plain)
	var name string
	if col < 0 {
		name = string(text(key, plain))
		if b.unknown == nil || name < *b.unknown {
			b.unknown = &name
		}
	}
	if len(b.bad) > 0 {
		// A later attribute of the same name replaces an unusable one.
		b.bad = slices.DeleteFunc(b.bad, func(a badAttr) bool { return a.col == col && a.name == name })
	}
	if err != nil {
		b.bad = append(b.bad, badAttr{col, name, err})
	} else if col >= 0 {
		b.vals[lo+col] = val
		b.provided[lo+col] = true
	}
}

// column returns the schema index of the attribute whose name literal is
// key, or -1 when no column has that name.
func (b *ingestBatch) column(key []byte, plain bool) int {
	name := text(key, plain)
	if col, ok := b.cols[string(name)]; ok {
		return col
	}
	col := slices.IndexFunc(b.schema, func(c engine.Column) bool { return c.Name == string(name) })
	b.cols[string(name)] = col
	return col
}

// intern returns the string the literal q denotes, shared with earlier
// equal strings of the request.
func (b *ingestBatch) intern(q []byte, plain bool) string {
	s := text(q, plain)
	if v, ok := b.strs[string(s)]; ok {
		return v
	}
	v := string(s)
	b.strs[v] = v
	return v
}

// text returns the bytes that the valid JSON string literal q (quotes
// included) denotes. When the cursor found its body plain, or it has no
// escapes and is valid UTF-8, that is the body itself; anything else is
// unquoted by encoding/json, which also turns invalid UTF-8 and lone
// surrogates into U+FFFD.
func text(q []byte, plain bool) []byte {
	s := q[1 : len(q)-1]
	if plain || bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return s
	}
	var v string
	_ = json.Unmarshal(q, &v) // q is a valid string literal: cannot fail
	return []byte(v)
}

// rowFields are the row object's field names and their folded forms.
var rowFields = [...]struct{ name, folded string }{
	{"entity", "ENTITY"}, {"source", "SOURCE"}, {"attrs", "ATTRS"},
}

// fieldOf names the row field the object key literal q selects, or ""
// for a key the row does not have. Like encoding/json it tries an exact
// match first, then a folded one.
func fieldOf(q []byte, plain bool) string {
	s := text(q, plain)
	for _, f := range rowFields {
		if string(s) == f.name {
			return f.name
		}
	}
	var buf [32]byte
	folded := foldName(buf[:0], s)
	for _, f := range rowFields {
		if string(folded) == f.folded {
			return f.name
		}
	}
	return ""
}

// foldName appends encoding/json's folding of a field name to dst: ASCII
// letters to upper case and every other rune to the smallest rune of its
// simple-fold orbit, so "ſource" and "SOURCE" fold alike.
func foldName(dst, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// kindOf names the JSON kind of a value by its first byte, as
// encoding/json's type errors do.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	default:
		return "number"
	}
}

// cursor walks one line, checking the JSON grammar as it goes. At the
// first byte the grammar does not allow it sets bad and jumps to the end
// of the line, where ws reads 0, so every later step fails too and the
// walk unwinds.
type cursor struct {
	buf   []byte
	i     int
	depth int // open objects and arrays
	bad   bool
}

func (c *cursor) fail() {
	c.bad = true
	c.i = len(c.buf)
}

// ws skips JSON whitespace and returns the byte it stops at (0 at the
// end of the line).
func (c *cursor) ws() byte {
	for c.i < len(c.buf) {
		switch ch := c.buf[c.i]; ch {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return ch
		}
	}
	return 0
}

// strPlain marks the bytes a string literal's body holds as themselves:
// printable ASCII other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for ch := 0x20; ch < 0x80; ch++ {
		t[ch] = ch != '"' && ch != '\\'
	}
	return t
}()

// str consumes the string literal at the cursor and returns it, quotes
// included, and whether its body is plain (printable ASCII without
// escapes, so it denotes itself). A control byte, a bad escape or a
// missing closing quote is a syntax error.
func (c *cursor) str() ([]byte, bool) {
	buf, start := c.buf, c.i
	i := start + 1
	for i < len(buf) && strPlain[buf[i]] {
		i++
	}
	plain := true
	for i < len(buf) {
		switch ch := buf[i]; {
		case ch == '"':
			c.i = i + 1
			return buf[start:c.i], plain
		case ch == '\\':
			plain = false
			if i+1 == len(buf) {
				c.fail()
				return nil, false
			}
			switch buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(buf) || !isHex(buf[i+2]) || !isHex(buf[i+3]) || !isHex(buf[i+4]) || !isHex(buf[i+5]) {
					c.fail()
					return nil, false
				}
				i += 6
			default:
				c.fail()
				return nil, false
			}
		case ch < 0x20:
			c.fail()
			return nil, false
		default:
			plain = plain && ch < utf8.RuneSelf
			i++
		}
	}
	c.fail()
	return nil, false
}

func isHex(ch byte) bool {
	return '0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'f' || 'A' <= ch && ch <= 'F'
}

// number consumes the number at the cursor and returns it: an optional
// minus, then 0 or a digit run without a leading zero, then optionally a
// fraction and an exponent, each with at least one digit.
func (c *cursor) number() []byte {
	buf, start := c.buf, c.i
	i := start
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	switch {
	case i < len(buf) && buf[i] == '0':
		i++
	case i < len(buf) && '1' <= buf[i] && buf[i] <= '9':
		i = digits(buf, i+1)
	default:
		c.fail()
		return nil
	}
	if i < len(buf) && buf[i] == '.' {
		j := digits(buf, i+1)
		if j == i+1 {
			c.fail()
			return nil
		}
		i = j
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		j := digits(buf, i)
		if j == i {
			c.fail()
			return nil
		}
		i = j
	}
	c.i = i
	return buf[start:i]
}

// digits returns the index of the first non-digit of buf at or after i.
func digits(buf []byte, i int) int {
	for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
		i++
	}
	return i
}

// literal consumes lit (true, false or null) at the cursor.
func (c *cursor) literal(lit string) {
	if len(c.buf)-c.i >= len(lit) && string(c.buf[c.i:c.i+len(lit)]) == lit {
		c.i += len(lit)
		return
	}
	c.fail()
}

// open enters the object or array at the cursor, whose closing byte is
// end, and reports whether a first member follows: false when it is empty
// or nested past encoding/json's depth limit.
func (c *cursor) open(end byte) bool {
	c.depth++
	if c.depth > maxDepth {
		c.fail()
		return false
	}
	c.i++
	if c.ws() == end {
		c.i++
		c.depth--
		return false
	}
	return true
}

// next consumes what follows a member of the container that end closes:
// true at a comma, so another member follows; false at end, or on a
// syntax error.
func (c *cursor) next(end byte) bool {
	switch c.ws() {
	case ',':
		c.i++
		return true
	case end:
		c.i++
		c.depth--
		return false
	}
	c.fail()
	return false
}

// key consumes an object key and its colon and returns the key literal
// and whether it is plain (see str).
func (c *cursor) key() ([]byte, bool) {
	if c.ws() != '"' {
		c.fail()
		return nil, false
	}
	q, plain := c.str()
	if c.ws() != ':' {
		c.fail()
		return nil, false
	}
	c.i++
	return q, plain
}

// skip consumes the value at the cursor.
func (c *cursor) skip() {
	switch ch := c.ws(); ch {
	case '"':
		c.str()
	case '{', '[':
		end := byte(']')
		if ch == '{' {
			end = '}'
		}
		if !c.open(end) {
			return
		}
		for {
			if end == '}' {
				if c.key(); c.bad {
					return
				}
			}
			c.skip()
			if !c.next(end) {
				return
			}
		}
	case 't':
		c.literal("true")
	case 'f':
		c.literal("false")
	case 'n':
		c.literal("null")
	default:
		c.number()
	}
}
