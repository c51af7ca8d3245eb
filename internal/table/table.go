// Package table is the one form of an exported row set — an
// experiment's figure data (experiments.Output.Tables) or netsim's side
// band (trace, queue samples, flows): named columns of string, integer
// and float cells, with one CSV and one JSON writer, and a lossless wire
// form (MarshalJSON) in which a table crosses a process boundary.
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

// wireTable is a Table's wire form: its cells row-major, each as it is
// held.
type wireTable struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Cells   []wireCell `json:"cells"`
}

// wireCell is a Cell as it is held: its kind, a string's text, an
// integer's or float's bits and a float's precision, zero fields left
// out.
type wireCell struct {
	Kind kind   `json:"k,omitempty"`
	Str  string `json:"s,omitempty"`
	Bits uint64 `json:"b,omitempty"`
	Prec int32  `json:"p,omitempty"`
}

// MarshalJSON writes the table's wire form: name, columns and every
// cell's kind, bits and precision, so UnmarshalJSON rebuilds a table
// whose CSV and JSON are t's byte for byte. It is not WriteJSON's
// presentation form.
func (t Table) MarshalJSON() ([]byte, error) {
	w := wireTable{Name: t.Name, Columns: t.Columns, Cells: make([]wireCell, len(t.cells))}
	for i, c := range t.cells {
		w.Cells[i] = wireCell{Kind: c.kind, Str: c.str, Bits: c.bits, Prec: c.prec}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads MarshalJSON's wire form. It refuses cells that do
// not fill whole rows and any cell no constructor makes: an unknown
// kind, a precision outside [-1, maxDigits] or on a non-float, a
// non-finite float.
func (t *Table) UnmarshalJSON(data []byte) error {
	var w wireTable
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Cells) > 0 && (len(w.Columns) == 0 || len(w.Cells)%len(w.Columns) != 0) {
		return fmt.Errorf("table: %s: %d cells do not fill rows of %d columns", w.Name, len(w.Cells), len(w.Columns))
	}
	cells := make([]Cell, len(w.Cells))
	for i, wc := range w.Cells {
		c := Cell{str: wc.Str, bits: wc.Bits, kind: wc.Kind, prec: wc.Prec}
		var made Cell
		switch c.kind {
		case kindString:
			made = String(c.str)
		case kindInt:
			made = Int(int64(c.bits))
		case kindUint:
			made = Int(c.bits)
		case kindFloat:
			x := math.Float64frombits(c.bits)
			if math.IsNaN(x) || math.IsInf(x, 0) || c.prec < -1 || c.prec > maxDigits {
				return fmt.Errorf("table: %s cell %d: float %v with precision %d", w.Name, i, x, c.prec)
			}
			made = floatCell(x, c.prec)
		default:
			return fmt.Errorf("table: %s cell %d: unknown kind %d", w.Name, i, c.kind)
		}
		if c != made {
			return fmt.Errorf("table: %s cell %d: %+v is no cell a constructor makes", w.Name, i, wc)
		}
		cells[i] = c
	}
	*t = Table{Name: w.Name, Columns: w.Columns, cells: cells}
	return nil
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

// maxDigits bounds a Fixed cell's digits after the point.
const maxDigits = 64

// Fixed returns a float cell written in CSV with digits ∈ [0, maxDigits]
// digits after the point (fmt's %.*f: Fixed(t.Micros(), 3) is a time in
// µs). It panics as Float does, and on digits out of range.
func Fixed(x float64, digits int) Cell {
	if digits < 0 || digits > maxDigits {
		panic(fmt.Sprintf("table: %d digits after the point", digits))
	}
	return floatCell(x, int32(digits))
}

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
