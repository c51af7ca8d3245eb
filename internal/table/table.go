// Package table is the one form of an exported row set — an
// experiment's figure data (experiments.Output.Tables) or netsim's side
// band (trace, queue samples, flows): named columns of string, integer
// and float cells, with one CSV and one JSON writer.
package table

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Table is a row set named by its file stem (e.g. "figure5"). Its cells
// live in one slab, row-major, len(Columns) to a row.
type Table struct {
	Name    string
	Columns []string
	cells   []Cell
}

// New returns an empty table with room for rows rows of the given
// columns, all in one allocation.
func New(name string, rows int, columns ...string) Table {
	return Table{Name: name, Columns: columns, cells: make([]Cell, 0, rows*len(columns))}
}

// Append adds one row. It panics unless the row has one cell per column.
func (t *Table) Append(row ...Cell) {
	if len(row) != len(t.Columns) {
		panic(fmt.Sprintf("table: %s row of %d cells, want %d", t.Name, len(row), len(t.Columns)))
	}
	t.cells = append(t.cells, row...)
}

// Len returns the number of rows.
func (t Table) Len() int { return len(t.cells) / len(t.Columns) }

// WriteCSV writes the column names, then one record per row of the
// cells' CSV forms, RFC 4180 quoted where needed.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	record := make([]string, len(t.Columns))
	for i := 0; i < len(t.cells); i += len(t.Columns) {
		for j, c := range t.cells[i : i+len(t.Columns)] {
			record[j] = c.String()
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes an indented JSON array of one object per row, keyed
// by the column names in order; floats at full precision.
func (t Table) WriteJSON(w io.Writer) error {
	b := []byte{'['}
	for i := 0; i < len(t.cells); i += len(t.Columns) {
		if i > 0 {
			b = append(b, ',')
		}
		sep := byte('{')
		for j, name := range t.Columns {
			b = append(b, sep)
			sep = ','
			b = appendJSON(b, name)
			b = append(b, ':')
			b = appendJSON(b, t.cells[i+j].value())
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	var out bytes.Buffer
	if err := json.Indent(&out, b, "", " "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err := out.WriteTo(w)
	return err
}

// appendJSON appends v's encoding: a string, integer or finite float,
// which json.Marshal cannot fail on.
func appendJSON(b []byte, v any) []byte {
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

// Cell is one value of a table. The zero Cell is the empty string.
type Cell struct {
	str  string
	bits uint64 // an integer's two's complement, or a float's IEEE 754 bits
	kind kind
	prec int32 // a float's digits after the point in CSV; -1 for the shortest form
}

type kind uint8

const (
	kindString kind = iota
	kindInt         // a negative integer
	kindUint        // a non-negative integer
	kindFloat
)

// integer is every integer type (sim.Time, routing.FlowID, ...).
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// String returns a string cell.
func String(s string) Cell { return Cell{str: s} }

// Int returns an integer cell, exact for every value of every type.
func Int[T integer](n T) Cell {
	if n < 0 {
		return Cell{bits: uint64(int64(n)), kind: kindInt}
	}
	return Cell{bits: uint64(n), kind: kindUint}
}

// Float returns a float cell written in CSV in its shortest exact form
// (fmt's %g). It panics if x is NaN or infinite: every exported float
// is a measurement, and a non-finite one is a bug where it was computed.
func Float(x float64) Cell { return floatCell(x, -1) }

// Fixed returns a float cell written in CSV with digits ≥ 0 digits after
// the point (fmt's %.*f: Fixed(t.Micros(), 3) is a time in µs). It
// panics as Float does.
func Fixed(x float64, digits int) Cell { return floatCell(x, int32(digits)) }

func floatCell(x float64, prec int32) Cell {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("table: non-finite float %v", x))
	}
	return Cell{bits: math.Float64bits(x), kind: kindFloat, prec: prec}
}

// String returns the cell's CSV form.
func (c Cell) String() string {
	switch c.kind {
	case kindInt:
		return strconv.FormatInt(int64(c.bits), 10)
	case kindUint:
		return strconv.FormatUint(c.bits, 10)
	case kindFloat:
		if c.prec < 0 {
			return strconv.FormatFloat(math.Float64frombits(c.bits), 'g', -1, 64)
		}
		return strconv.FormatFloat(math.Float64frombits(c.bits), 'f', int(c.prec), 64)
	}
	return c.str
}

// value returns the cell as a string, int64, uint64 or float64.
func (c Cell) value() any {
	switch c.kind {
	case kindInt:
		return int64(c.bits)
	case kindUint:
		return c.bits
	case kindFloat:
		return math.Float64frombits(c.bits)
	}
	return c.str
}
