package engine

// Write-path parity: per-row Insert and the batched Writer are two front
// ends of one apply path, so the same observation sequence must leave
// both tables with the same entities, values, lineage and conflicts.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sqlparse"
)

// parityRow is one decoded observation of the write-path fuzz input.
type parityRow struct {
	id, src string
	attrs   map[string]sqlparse.Value
}

var paritySchema = Schema{
	{Name: "name", Type: TypeString},
	{Name: "v", Type: TypeFloat},
	{Name: "ok", Type: TypeBool},
}

// decodeParityRows turns fuzz bytes into at most 16 observations over 8
// entities and 4 sources, four bytes a row. Each cell is missing, NULL or
// one of a few values, so re-reports often conflict; a rare row carries a
// value of the wrong type and must be rejected by both paths.
func decodeParityRows(data []byte) []parityRow {
	var rows []parityRow
	for len(data) >= 4 && len(rows) < 16 {
		b := data[:4]
		data = data[4:]
		r := parityRow{
			id:    fmt.Sprintf("e%d", b[0]&7),
			src:   fmt.Sprintf("s%d", (b[0]>>3)&3),
			attrs: map[string]sqlparse.Value{},
		}
		cell := func(name string, mode byte, val sqlparse.Value) {
			switch mode % 4 {
			case 0: // missing
			case 1:
				r.attrs[name] = sqlparse.Null()
			default:
				r.attrs[name] = val
			}
		}
		cell("name", b[1], sqlparse.StringValue(fmt.Sprintf("n%d", (b[1]>>2)%3)))
		cell("v", b[2], sqlparse.Number(float64((b[2]>>2)%3)))
		cell("ok", b[3], sqlparse.BoolValue(b[3]&4 != 0))
		if b[3] == 0xff {
			r.attrs["v"] = sqlparse.StringValue("not a number")
		}
		rows = append(rows, r)
	}
	return rows
}

// writePathState is what the parity check compares: per-entity values
// and sorted source names (seqs are left out — the Writer applies shard
// by shard, so insertion order across shards differs), plus |S|.
type writePathState struct {
	rows map[string]rowData
	obs  int
}

func readWritePathState(tbl *Table) writePathState {
	st := writePathState{rows: map[string]rowData{}, obs: tbl.NumObservations()}
	for _, r := range tbl.rowsSnapshot() {
		st.rows[r.ID] = r
	}
	return st
}

// checkWritePathParity feeds rows through per-row Insert on one table and
// through a Writer plus Flush on another and requires equal end states,
// equal per-row rejections and equal conflict counts.
func checkWritePathParity(t *testing.T, rows []parityRow) {
	t.Helper()
	ins, err := NewTable("ins", paritySchema)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	bat, err := NewTable("bat", paritySchema)
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()

	w := bat.NewWriter()
	insConflicts := 0
	for i, r := range rows {
		insErr := ins.Insert(r.id, r.src, r.attrs)
		batErr := w.Append(r.id, r.src, r.attrs)
		if errors.Is(insErr, ErrConflict) {
			insConflicts++
			insErr = nil
		}
		if (insErr == nil) != (batErr == nil) {
			t.Fatalf("row %d %+v: Insert error %v, Writer error %v", i, r, insErr, batErr)
		}
	}
	batConflicts := countConflicts(w.Flush())
	if insConflicts != batConflicts {
		t.Fatalf("Insert reported %d conflicts, Writer+Flush %d", insConflicts, batConflicts)
	}
	if err := ins.Flush(); err != nil {
		t.Fatalf("Flush after Inserts reports %v; Insert returns its own conflicts", err)
	}
	a, b := readWritePathState(ins), readWritePathState(bat)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("write paths diverge:\n Insert %+v\n Writer %+v", a, b)
	}
}

// FuzzWritePathParity: arbitrary short observation sequences with NULL
// cells, missing cells and conflicting re-reports must leave per-row
// Insert and Writer+Flush in the same state with the same conflicts.
func FuzzWritePathParity(f *testing.F) {
	f.Add([]byte{0, 2, 2, 2, 8, 3, 6, 6})                // e0 twice, conflicting name and v
	f.Add([]byte{0, 1, 1, 1, 8, 2, 2, 2, 0, 1, 1, 1})    // NULL first, then values, then a duplicate
	f.Add([]byte{1, 0, 2, 0, 9, 2, 0, 0, 2, 2, 2, 0xff}) // missing cells and a wrong-typed row
	f.Add([]byte{0, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 16, 6, 6, 6, 17, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWritePathParity(t, decodeParityRows(data))
	})
}
