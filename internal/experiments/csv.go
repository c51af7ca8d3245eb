package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"sort"

	"github.com/quartz-dcn/quartz/internal/sim"
)

// WriteCSV writes a slice of flat row structs as CSV: one column per
// exported field, with map-valued fields (architecture -> value)
// expanded into one column per key, sorted. It exists so every
// experiment's rows can be exported for external plotting without
// per-type boilerplate:
//
//	rows, _ := experiments.Table9(seed)
//	experiments.WriteCSV(os.Stdout, rows)
func WriteCSV(w io.Writer, rows interface{}) error {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("experiments: WriteCSV needs a slice, got %T", rows)
	}
	if v.Len() == 0 {
		return fmt.Errorf("experiments: WriteCSV: empty row set")
	}
	elemT := v.Type().Elem()
	if elemT.Kind() != reflect.Struct {
		return fmt.Errorf("experiments: WriteCSV needs a slice of structs, got %T", rows)
	}

	// Build the column plan from the first element: plain fields in
	// declaration order, then each map field's keys sorted.
	type column struct {
		field  int
		mapKey string // non-empty for expanded map columns
	}
	var header []string
	var cols []column
	first := v.Index(0)
	for f := 0; f < elemT.NumField(); f++ {
		ft := elemT.Field(f)
		if !ft.IsExported() {
			continue
		}
		fv := first.Field(f)
		if fv.Kind() == reflect.Map && fv.Type().Key().Kind() == reflect.String {
			var keys []string
			for _, k := range fv.MapKeys() {
				keys = append(keys, k.String())
			}
			sort.Strings(keys)
			for _, k := range keys {
				header = append(header, ft.Name+":"+k)
				cols = append(cols, column{field: f, mapKey: k})
			}
			continue
		}
		header = append(header, ft.Name)
		cols = append(cols, column{field: f})
	}

	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := 0; i < v.Len(); i++ {
		row := v.Index(i)
		record := make([]string, 0, len(cols))
		for _, c := range cols {
			fv := row.Field(c.field)
			if c.mapKey != "" {
				fv = fv.MapIndex(reflect.ValueOf(c.mapKey))
				if !fv.IsValid() {
					record = append(record, "")
					continue
				}
			}
			record = append(record, formatCell(fv))
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatCell renders one value: simulation times in microseconds,
// rates in bits per second, everything else via fmt.
func formatCell(v reflect.Value) string {
	switch val := v.Interface().(type) {
	case sim.Time:
		return fmt.Sprintf("%.3f", val.Micros())
	case sim.Rate:
		return fmt.Sprintf("%d", int64(val))
	case float64:
		return fmt.Sprintf("%g", val)
	case bool:
		if val {
			return "1"
		}
		return "0"
	default:
		return fmt.Sprintf("%v", val)
	}
}
