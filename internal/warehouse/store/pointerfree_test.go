package store

import (
	"reflect"
	"testing"
	"time"
)

// hasPointers reports whether a value of type t holds a Go pointer the
// collector must follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
		reflect.Slice, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestColumnHoldsNoPointerPerCell keeps Column's cells out of the
// collector's mark work: every per-cell vector's element type is free
// of pointers. Dict is the one exemption — it holds one entry per
// distinct value, not one per cell. A []string or []time.Time vector
// coming back fails here.
func TestColumnHoldsNoPointerPerCell(t *testing.T) {
	if !hasPointers(reflect.TypeOf("")) || !hasPointers(reflect.TypeOf(time.Time{})) || hasPointers(reflect.TypeOf(int64(0))) {
		t.Fatal("hasPointers misjudges string, time.Time or int64")
	}
	typ := reflect.TypeOf(Column{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Name == "Dict":
			if f.Type != reflect.TypeOf([]string(nil)) {
				t.Errorf("Column.Dict is %v, want []string", f.Type)
			}
		case f.Type.Kind() == reflect.Slice:
			if hasPointers(f.Type.Elem()) {
				t.Errorf("Column.%s is %v: its cells hold pointers the collector walks one by one", f.Name, f.Type)
			}
		case hasPointers(f.Type):
			t.Errorf("Column.%s is %v, which holds a pointer", f.Name, f.Type)
		}
	}
}
