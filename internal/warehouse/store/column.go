package store

import (
	"fmt"
	"time"
)

// ColumnType enumerates the value types a column may hold.
type ColumnType uint8

// Supported column types.
const (
	TypeInt ColumnType = iota + 1
	TypeFloat
	TypeString
	TypeBool
	TypeTime
)

// String returns the SQL-ish name of the column type.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	case TypeTime:
		return "DATETIME"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column is one column vector: a typed payload ([]int64, []float64,
// []string, []bool or []time.Time — exactly the slice matching Type)
// plus a parallel validity vector. It is the one vector type of the
// warehouse: a table's hot tail, a sealed segment, a snapshot chunk
// and a bulk-load payload all hold their columns as Columns.
//
// Vectors are strictly append-only — updates and deletes tombstone the
// old row position and append a fresh one — which is what makes the
// copy-on-write snapshot protocol cheap: a published snapshot captures
// the slice headers, and later appends land at indices beyond every
// published length (or in a reallocated array), so readers and the
// writer never touch the same element.
//
// Validity is a []bool rather than a packed bitmap on purpose: packing
// would make an append mutate a word that published snapshots share,
// forcing a copy of the whole bitmap on every insert (and tripping the
// race detector without it). One byte per cell buys race-free appends.
// Nulls may be nil in a payload handed in from outside when no cell is
// NULL; the warehouse's own vectors and the views backends return
// always carry a full-length Nulls.
type Column struct {
	Type   ColumnType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Times  []time.Time
	Nulls  []bool // Nulls[i] reports cell i is NULL
}

// AppendValue appends one canonical value of the column's type
// (int64, float64, string, bool or time.Time), or nil for NULL, and
// reports whether x was one; when it was not, a zero cell is appended.
func (v *Column) AppendValue(x any) bool {
	var ok bool
	switch v.Type {
	case TypeInt:
		v.Ints, ok = appendAs(v.Ints, x)
	case TypeFloat:
		v.Floats, ok = appendAs(v.Floats, x)
	case TypeString:
		v.Strs, ok = appendAs(v.Strs, x)
	case TypeBool:
		v.Bools, ok = appendAs(v.Bools, x)
	case TypeTime:
		v.Times, ok = appendAs(v.Times, x)
	}
	v.Nulls = append(v.Nulls, x == nil)
	return ok || x == nil
}

func appendAs[T any](s []T, x any) ([]T, bool) {
	c, ok := x.(T)
	return append(s, c), ok
}

// Value returns cell i as a canonical any (nil for NULL).
func (v *Column) Value(i int) any {
	if v.Nulls != nil && v.Nulls[i] {
		return nil
	}
	switch v.Type {
	case TypeInt:
		return v.Ints[i]
	case TypeFloat:
		return v.Floats[i]
	case TypeString:
		return v.Strs[i]
	case TypeBool:
		return v.Bools[i]
	case TypeTime:
		return v.Times[i]
	}
	return nil
}

// Reserve gives an empty vector room for n cells.
func (v *Column) Reserve(n int) {
	switch v.Type {
	case TypeInt:
		v.Ints = make([]int64, 0, n)
	case TypeFloat:
		v.Floats = make([]float64, 0, n)
	case TypeString:
		v.Strs = make([]string, 0, n)
	case TypeBool:
		v.Bools = make([]bool, 0, n)
	case TypeTime:
		v.Times = make([]time.Time, 0, n)
	}
	v.Nulls = make([]bool, 0, n)
}

// AppendFrom appends src's cell at pos without boxing; src has the
// same type and a full-length Nulls.
func (v *Column) AppendFrom(src *Column, pos int) {
	switch v.Type {
	case TypeInt:
		v.Ints = append(v.Ints, src.Ints[pos])
	case TypeFloat:
		v.Floats = append(v.Floats, src.Floats[pos])
	case TypeString:
		v.Strs = append(v.Strs, src.Strs[pos])
	case TypeBool:
		v.Bools = append(v.Bools, src.Bools[pos])
	case TypeTime:
		v.Times = append(v.Times, src.Times[pos])
	}
	v.Nulls = append(v.Nulls, src.Nulls[pos])
}

// AppendColumn appends every cell of src, a vector of the same type
// with a full-length Nulls.
func (v *Column) AppendColumn(src *Column) {
	switch v.Type {
	case TypeInt:
		v.Ints = append(v.Ints, src.Ints...)
	case TypeFloat:
		v.Floats = append(v.Floats, src.Floats...)
	case TypeString:
		v.Strs = append(v.Strs, src.Strs...)
	case TypeBool:
		v.Bools = append(v.Bools, src.Bools...)
	case TypeTime:
		v.Times = append(v.Times, src.Times...)
	}
	v.Nulls = append(v.Nulls, src.Nulls...)
}
