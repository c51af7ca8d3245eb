package table

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzTable writes a table of one string, two integer and two float
// cells per row as CSV and as JSON, and reads both back: encoding/csv
// must return each cell's CSV form — fmt's %v, %g and %.*f — and
// encoding/json each cell's value, floats bit for bit. The table's wire
// form must decode to a table both writers print byte for byte as the
// original. A NaN or infinite float must be refused where its cell is
// made. The string is also read as a wire form: refused, or a table
// that survives another round trip unchanged.
func FuzzTable(f *testing.F) {
	for _, wire := range wireRefusals {
		f.Add(wire.doc, int64(1), uint64(2), 0.5, uint8(1))
	}
	f.Add(`{"name":"ok","columns":["a","b"],"cells":[{"s":"x"},{"k":3,"b":4611686018427387904,"p":2}]}`,
		int64(1), uint64(2), 0.5, uint8(1))
	// The trace recorder's fault-row reasons (netsim's traceFixture):
	// commas, quotes, and both inside one field.
	for _, reason := range []string{
		`fail: cut links 3, 4 at "spine", detect 10ms`,
		"link 3 down",
		`reconverged, "2 links" down`,
	} {
		f.Add(reason, int64(-1), uint64(math.MaxUint64), 2.5, uint8(3))
	}
	f.Add("two\nlines\r\nand a\rreturn", int64(math.MinInt64), uint64(0), 1e21, uint8(6))
	f.Add("", int64(math.MaxInt64), uint64(1), math.Copysign(0, -1), uint8(0))
	f.Add(" <&>\x00\xff", int64(0), uint64(7), 5e-324, uint8(17))
	f.Add("nan", int64(1), uint64(2), math.NaN(), uint8(3))
	f.Add("inf", int64(1), uint64(2), math.Inf(1), uint8(3))
	f.Add("-inf", int64(1), uint64(2), math.Inf(-1), uint8(3))
	f.Fuzz(func(t *testing.T, s string, n int64, u uint64, x float64, digits uint8) {
		var wire Table
		if json.Unmarshal([]byte(s), &wire) == nil {
			roundTrip(t, wire)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			if !panics(func() { Float(x) }) || !panics(func() { Fixed(x, int(digits)) }) {
				t.Fatalf("non-finite float %v accepted", x)
			}
			return
		}
		// encoding/json writes invalid UTF-8 as U+FFFD, byte by byte.
		s = strings.ToValidUTF8(s, "�")
		d := int(digits % 32)
		tb := New("fuzz", 2, "s", "n", "u", "g", "f")
		tb.Append(String(s), Int(n), Int(u), Float(x), Fixed(x, d))
		tb.Append(String(""), Int(-n), Int(u/3), Float(-x/3), Fixed(x/7, 0))
		want := [][]string{
			{"s", "n", "u", "g", "f"},
			{s, fmt.Sprint(n), fmt.Sprint(u), fmt.Sprintf("%g", x), fmt.Sprintf("%.*f", d, x)},
			{"", fmt.Sprint(-n), fmt.Sprint(u / 3), fmt.Sprintf("%g", -x/3), fmt.Sprintf("%.0f", x/7)},
		}
		if tb.Len() != 2 {
			t.Fatalf("Len = %d, want 2", tb.Len())
		}

		var b bytes.Buffer
		if err := tb.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(&b).ReadAll()
		if err != nil {
			t.Fatalf("CSV does not parse: %v", err)
		}
		if len(records) != len(want) {
			t.Fatalf("CSV has %d records, want %d", len(records), len(want))
		}
		for i, rec := range records {
			for j, got := range rec {
				// A CSV reader ends every line in \n, inside quotes too.
				if w := strings.ReplaceAll(want[i][j], "\r\n", "\n"); got != w {
					t.Errorf("CSV record %d field %d = %q, want %q", i, j, got, w)
				}
			}
		}

		b.Reset()
		if err := tb.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(&b)
		dec.UseNumber()
		var rows []map[string]any
		if err := dec.Decode(&rows); err != nil {
			t.Fatalf("JSON does not parse: %v", err)
		}
		if len(rows) != tb.Len() {
			t.Fatalf("JSON has %d rows, want %d", len(rows), tb.Len())
		}
		for i, row := range rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("JSON row %d has %d keys, want %d", i, len(row), len(tb.Columns))
			}
			for j, col := range tb.Columns {
				if cell := tb.cells[i*len(tb.Columns)+j]; !same(row[col], cell) {
					t.Errorf("JSON row %d %s = %v, want %v", i, col, row[col], cell.value())
				}
			}
		}
		roundTrip(t, tb)
	})
}

// roundTrip checks that tb's wire form decodes to a table both writers
// print exactly as they print tb.
func roundTrip(t *testing.T, tb Table) {
	t.Helper()
	wire, err := json.Marshal(tb)
	if err != nil {
		t.Fatalf("wire form: %v", err)
	}
	var back Table
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatalf("wire form %s refused: %v", wire, err)
	}
	if got, want := written(t, back), written(t, tb); got != want {
		t.Fatalf("wire form %s decodes to\n%s\nwant\n%s", wire, got, want)
	}
}

// written is tb's CSV followed by its JSON.
func written(t *testing.T, tb Table) string {
	t.Helper()
	var b bytes.Buffer
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// wireRefusals are wire forms no table has: the decoder must say so.
var wireRefusals = []struct{ name, doc string }{
	{"ragged", `{"name":"r","columns":["a","b"],"cells":[{"s":"x"}]}`},
	{"cells without columns", `{"name":"r","columns":[],"cells":[{"s":"x"}]}`},
	{"unknown kind", `{"name":"k","columns":["a"],"cells":[{"k":4}]}`},
	{"precision below -1", `{"name":"p","columns":["a"],"cells":[{"k":3,"b":1,"p":-2}]}`},
	{"precision past the bound", `{"name":"p","columns":["a"],"cells":[{"k":3,"b":1,"p":2147483647}]}`},
	{"precision on an integer", `{"name":"p","columns":["a"],"cells":[{"k":2,"b":1,"p":3}]}`},
	{"NaN", `{"name":"n","columns":["a"],"cells":[{"k":3,"b":9221120237041090561}]}`},
	{"infinity", `{"name":"n","columns":["a"],"cells":[{"k":3,"b":9218868437227405312}]}`},
	{"non-negative integer as negative", `{"name":"i","columns":["a"],"cells":[{"k":1,"b":5}]}`},
	{"string with bits", `{"name":"s","columns":["a"],"cells":[{"s":"x","b":5}]}`},
	{"not an object", `[1, 2]`},
}

func TestWireFormRefusals(t *testing.T) {
	for _, tc := range wireRefusals {
		var tb Table
		if err := json.Unmarshal([]byte(tc.doc), &tb); err == nil {
			t.Errorf("%s: %s accepted", tc.name, tc.doc)
		}
	}
}

// same reports whether a decoded JSON value is the cell's value: the
// same string, the same integer, or the same float bit for bit (-0 is
// not 0).
func same(v any, cell Cell) bool {
	num, _ := v.(json.Number)
	switch want := cell.value().(type) {
	case int64:
		got, err := strconv.ParseInt(string(num), 10, 64)
		return err == nil && got == want
	case uint64:
		got, err := strconv.ParseUint(string(num), 10, 64)
		return err == nil && got == want
	case float64:
		got, err := strconv.ParseFloat(string(num), 64)
		return err == nil && math.Float64bits(got) == math.Float64bits(want)
	default:
		return v == want
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
