package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/sqlparse"
)

// NDJSON ingest decoding. Each line is checked with json.Valid, so
// encoding/json alone decides what is syntactically valid, and the
// known-valid bytes are then walked by a small cursor with no reflection:
// the three row fields are read directly, anything else is skipped. The
// result is exactly what decoding into
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

// ingestBatch is one request body, decoded in full before any row is
// staged, so a malformed line rejects the batch with nothing applied.
// Batches are pooled; release returns one.
type ingestBatch struct {
	rows  []ingestLine
	attrs []ingestAttr
	// bad lists the current line's attributes whose value no column can
	// hold (an object, an array or an out-of-range number). Such a value
	// rejects the line unless a later attribute of the same name replaces
	// it.
	bad []badAttr
	// strs interns sources, attribute names and string values within the
	// request: they repeat from row to row, and a hit allocates nothing.
	strs map[string]string
	// scan is the line scanner's initial buffer.
	scan []byte
}

// ingestLine is one decoded observation. Its attributes are
// attrs[lo:hi] of the batch, in the order the line wrote them.
type ingestLine struct {
	entity, source string
	lo, hi         int
}

// ingestAttr is one attribute as written; a later one of the same name
// replaces it.
type ingestAttr struct {
	name string
	val  sqlparse.Value
}

// badAttr is an unusable value at attrs[i].
type badAttr struct {
	i   int
	err error
}

const (
	// maxLineBytes bounds one NDJSON line.
	maxLineBytes = 4 << 20
	// maxPooledAttrs and maxPooledStrs keep the batches of unusually
	// large bodies out of the pool.
	maxPooledAttrs = 1 << 16
	maxPooledStrs  = 1 << 12
)

var batchPool = sync.Pool{New: func() any {
	return &ingestBatch{strs: make(map[string]string), scan: make([]byte, 64<<10)}
}}

// release empties the batch, so the pool holds no request's strings, and
// returns it to the pool.
func (b *ingestBatch) release() {
	if cap(b.attrs) > maxPooledAttrs || len(b.strs) > maxPooledStrs {
		return
	}
	clear(b.rows)
	clear(b.attrs)
	clear(b.bad)
	clear(b.strs)
	b.rows, b.attrs, b.bad = b.rows[:0], b.attrs[:0], b.bad[:0]
	batchPool.Put(b)
}

// decodeIngest decodes an NDJSON body. Blank and whitespace-only lines
// are skipped; line numbers in errors count the lines that are not. Every
// row must name its entity and source. The caller releases the batch.
func decodeIngest(body io.Reader) (*ingestBatch, error) {
	b := batchPool.Get().(*ingestBatch)
	if err := b.decode(body); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

func (b *ingestBatch) decode(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(b.scan, maxLineBytes)
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
	}
	return sc.Err()
}

// decodeLine decodes one non-blank line as row n of the batch.
func (b *ingestBatch) decodeLine(line []byte, n int) error {
	if !json.Valid(line) {
		// Only the failure path pays for encoding/json's positioned
		// syntax error.
		return fmt.Errorf("line %d: %v", n, json.Unmarshal(line, new(json.RawMessage)))
	}
	row := ingestLine{lo: len(b.attrs)}
	b.bad = b.bad[:0]
	c := cursor{buf: line}
	switch first := c.ws(); first {
	case '{':
		if err := b.object(&c, &row); err != nil {
			return fmt.Errorf("line %d: %v", n, err)
		}
	case 'n':
		// A null line decodes to an empty row, as it does into a struct.
	default:
		return fmt.Errorf("line %d: json: cannot unmarshal %s into Go value of type server.ingestRow", n, kindOf(first))
	}
	row.hi = len(b.attrs)
	if err := b.attrErr(row); err != nil {
		return fmt.Errorf("line %d, %v", n, err)
	}
	b.rows = append(b.rows, row)
	return nil
}

// object decodes the row object at the cursor.
func (b *ingestBatch) object(c *cursor, row *ingestLine) error {
	c.i++ // '{'
	for c.ws() != '}' {
		key := c.str()
		c.ws()
		c.i++ // ':'
		v := c.ws()
		switch f := fieldOf(key); f {
		case "entity", "source":
			switch v {
			case '"':
				if f == "entity" {
					row.entity = string(text(c.str()))
				} else {
					row.source = b.intern(c.str())
				}
			case 'n':
				c.scalar()
			default:
				return fmt.Errorf("json: cannot unmarshal %s into Go struct field ingestRow.%s of type string", kindOf(v), f)
			}
		case "attrs":
			switch v {
			case '{':
				b.attrObject(c)
			case 'n':
				c.scalar()
				b.attrs = b.attrs[:row.lo]
				b.bad = b.bad[:0]
			default:
				return fmt.Errorf("json: cannot unmarshal %s into Go struct field ingestRow.attrs of type map[string]json.RawMessage", kindOf(v))
			}
		default:
			c.skip()
		}
		if c.ws() == ',' {
			c.i++
		}
	}
	return nil
}

// attrObject appends the attributes of the object at the cursor.
func (b *ingestBatch) attrObject(c *cursor) {
	c.i++ // '{'
	for c.ws() != '}' {
		name := b.intern(c.str())
		c.ws()
		c.i++ // ':'
		c.ws()
		b.attrValue(c, name)
		if c.ws() == ',' {
			c.i++
		}
	}
	c.i++ // '}'
}

// attrValue appends the attribute value at the cursor.
func (b *ingestBatch) attrValue(c *cursor, name string) {
	var val sqlparse.Value
	var err error
	start := c.i
	switch c.buf[c.i] {
	case '"':
		val = sqlparse.StringValue(b.intern(c.str()))
	case '{', '[':
		c.skip()
		err = fmt.Errorf("attribute %q: unsupported attribute value %s", name, c.buf[start:c.i])
	default:
		switch lit := c.scalar(); lit[0] {
		case 't':
			val = sqlparse.BoolValue(true)
		case 'f':
			val = sqlparse.BoolValue(false)
		case 'n':
			val = sqlparse.Null()
		default:
			var f float64
			if f, err = strconv.ParseFloat(string(lit), 64); err != nil {
				err = fmt.Errorf("attribute %q: %v", name, err)
			}
			val = sqlparse.Number(f)
		}
	}
	if err != nil {
		b.bad = append(b.bad, badAttr{len(b.attrs), err})
	}
	b.attrs = append(b.attrs, ingestAttr{name, val})
}

// attrErr reports the first unusable attribute value of row that no later
// attribute of the same name replaces.
func (b *ingestBatch) attrErr(row ingestLine) error {
	if len(b.bad) == 0 {
		return nil
	}
	last := make(map[string]int, row.hi-row.lo)
	for j := row.lo; j < row.hi; j++ {
		last[b.attrs[j].name] = j
	}
	for _, a := range b.bad {
		if last[b.attrs[a.i].name] == a.i {
			return a.err
		}
	}
	return nil
}

// attrMap loads row's attributes into m and returns it. m is cleared
// first, or replaced when it grew past a typical row: clearing a map
// costs its capacity, not its length.
func (b *ingestBatch) attrMap(m map[string]sqlparse.Value, row ingestLine) map[string]sqlparse.Value {
	if m == nil || len(m) > 64 {
		m = make(map[string]sqlparse.Value, row.hi-row.lo)
	} else {
		clear(m)
	}
	for _, a := range b.attrs[row.lo:row.hi] {
		m[a.name] = a.val
	}
	return m
}

// intern returns the string the literal q denotes, shared with earlier
// equal strings of the request.
func (b *ingestBatch) intern(q []byte) string {
	s := text(q)
	if v, ok := b.strs[string(s)]; ok {
		return v
	}
	v := string(s)
	b.strs[v] = v
	return v
}

// text returns the bytes that the valid JSON string literal q (quotes
// included) denotes. Without escapes and in valid UTF-8 that is q's body
// itself; anything else is unquoted by encoding/json, which also turns
// invalid UTF-8 and lone surrogates into U+FFFD.
func text(q []byte) []byte {
	s := q[1 : len(q)-1]
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
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
func fieldOf(q []byte) string {
	s := text(q)
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

// cursor walks one line that json.Valid accepted, so it never meets a
// syntax error and never reads past the end.
type cursor struct {
	buf []byte
	i   int
}

// ws skips JSON whitespace and returns the byte it stops at.
func (c *cursor) ws() byte {
	for {
		switch ch := c.buf[c.i]; ch {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return ch
		}
	}
}

// str consumes the string literal at the cursor and returns it, quotes
// included.
func (c *cursor) str() []byte {
	start := c.i
	for i := start + 1; ; {
		switch c.buf[i] {
		case '"':
			c.i = i + 1
			return c.buf[start:c.i]
		case '\\':
			i += 2
		default:
			i++
		}
	}
}

// scalar consumes the number, true, false or null at the cursor and
// returns it. Inside an object or array a delimiter always follows it.
func (c *cursor) scalar() []byte {
	start := c.i
	for ; c.i < len(c.buf); c.i++ {
		switch c.buf[c.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return c.buf[start:c.i]
		}
	}
	return c.buf[start:]
}

// skip consumes the value at the cursor.
func (c *cursor) skip() {
	switch c.buf[c.i] {
	case '"':
		c.str()
	case '{', '[':
		for depth := 0; ; {
			switch c.buf[c.i] {
			case '"':
				c.str()
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			c.i++
			if depth == 0 {
				return
			}
		}
	default:
		c.scalar()
	}
}
