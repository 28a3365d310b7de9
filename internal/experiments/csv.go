package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"strconv"
)

// WriteCSV renders an exhibit's typed rows as CSV. It accepts any struct
// with exactly one exported slice-of-structs field (Rows, Cells or
// Series); the column headers come from the row struct's exported field
// names. Nested slices are flattened with a semicolon separator. A
// failed write to w is returned, including one at the final flush.
func WriteCSV(w io.Writer, exhibit interface{}) error {
	rows, err := rowsOf(exhibit)
	if err != nil {
		return err
	}
	if rows.Len() == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	rowType := rows.Index(0).Type()
	var header []string
	for i := 0; i < rowType.NumField(); i++ {
		f := rowType.Field(i)
		if f.IsExported() {
			header = append(header, f.Name)
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for r := 0; r < rows.Len(); r++ {
		row := rows.Index(r)
		var cells []string
		for i := 0; i < rowType.NumField(); i++ {
			if !rowType.Field(i).IsExported() {
				continue
			}
			cells = append(cells, formatCell(row.Field(i)))
		}
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// rowsOf locates the exhibit's row slice.
func rowsOf(exhibit interface{}) (reflect.Value, error) {
	v := reflect.ValueOf(exhibit)
	if v.Kind() == reflect.Ptr {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, fmt.Errorf("experiments: CSV export needs a struct, got %T", exhibit)
	}
	for _, name := range []string{"Rows", "Cells", "Series"} {
		f := v.FieldByName(name)
		if f.IsValid() && f.Kind() == reflect.Slice {
			return f, nil
		}
	}
	return reflect.Value{}, fmt.Errorf("experiments: %T has no Rows/Cells/Series slice", exhibit)
}

// formatCell renders one field value.
func formatCell(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		return strconv.FormatFloat(v.Float(), 'f', 4, 64)
	case reflect.Slice, reflect.Array:
		out := ""
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				out += ";"
			}
			out += formatCell(v.Index(i))
		}
		return out
	case reflect.Struct:
		// Nested results (e.g. core.Result) summarize as their Stringer
		// if present, else as their type name.
		if s, ok := v.Interface().(fmt.Stringer); ok {
			return s.String()
		}
		return v.Type().Name()
	default:
		return fmt.Sprint(v.Interface())
	}
}
