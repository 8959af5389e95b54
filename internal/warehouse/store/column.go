// Package store holds the warehouse's column vector (Column): one typed,
// append-only vector of cells with its validity vector, a string
// column's dictionary and the Index its writer keeps over it, and the
// typed views (StringView, TimeView) readers scan it through. A table,
// its published snapshots, a bulk-load payload and a transient batch
// all hold their columns as Columns.
package store

import (
	"fmt"
	"math"
	"strings"
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

// Column is one column vector: a typed payload — exactly the field (or,
// for strings, the pair of fields) matching Type — plus a parallel
// validity vector. It is the one vector type of the warehouse: a
// table, a published snapshot and a bulk-load payload all hold their
// columns as Columns.
//
// No per-cell field holds a Go pointer, so the collector never walks a
// vector cell by cell: a string cell is a uint32 code into Dict, which
// holds each distinct value of the column once, and a time cell is its
// int64 Unix nanoseconds, UTC (UnixNanos gives the range that holds).
//
// Vectors are strictly append-only — updates and deletes tombstone the
// old row position and append a fresh one — which is what makes the
// copy-on-write snapshot protocol cheap: a published snapshot captures
// the slice headers, and later appends land at indices beyond every
// published length (or in a reallocated array), so readers and the
// writer never touch the same element. The dictionary is shared the
// same way: a snapshot captures its header, and the writer's later
// entries land beyond it. Only one writer may append to a vector: a
// table that adopts a payload's vectors clips every one's capacity
// first, so its own appends reallocate.
//
// Validity is a []bool rather than a packed bitmap on purpose: packing
// would make an append mutate a word that published snapshots share,
// forcing a copy of the whole bitmap on every insert (and tripping the
// race detector without it). One byte per cell buys race-free appends.
// Nulls may be nil in a payload handed in from outside when no cell is
// NULL; the warehouse's own vectors always carry a full-length Nulls.
// A NULL string cell holds the code of "" and a NULL time cell 0, so
// that every code indexes Dict.
type Column struct {
	Type   ColumnType
	Ints   []int64   // TypeInt
	Floats []float64 // TypeFloat
	Codes  []uint32  // TypeString: each cell's index into Dict
	Dict   []string  // TypeString: the values Codes index, each once
	Bools  []bool    // TypeBool
	Nanos  []int64   // TypeTime: Unix nanoseconds, UTC
	Nulls  []bool    // Nulls[i] reports cell i is NULL
}

// Index is the writer side of a string column's dictionary: the code
// of every value in it. Whoever appends to a dictionary keeps its
// Index; readers resolve codes through the dictionary alone. The zero
// Index describes an empty dictionary.
type Index struct {
	codes map[string]uint32
}

// NewIndex returns the index of an existing dictionary, or an error
// naming the first value the dictionary holds twice.
func NewIndex(dict []string) (Index, error) {
	seen := make(map[string]uint32, len(dict))
	for c, s := range dict {
		if _, dup := seen[s]; dup {
			return Index{}, fmt.Errorf("dictionary holds %q twice", s)
		}
		seen[s] = uint32(c)
	}
	return Index{codes: seen}, nil
}

// Code returns s's code, and false when the dictionary lacks s. It
// changes nothing, so readers may call it while no writer runs.
func (ix Index) Code(s string) (uint32, bool) {
	c, ok := ix.codes[s]
	return c, ok
}

var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// UnixNanos returns t as Unix nanoseconds, and false when t lies
// outside what an int64 of nanoseconds holds (about the years 1678 to
// 2262), where time.Time.UnixNano is undefined.
func UnixNanos(t time.Time) (int64, bool) {
	if t.Before(minTime) || t.After(maxTime) {
		return 0, false
	}
	return t.UnixNano(), true
}

// timeOf is the time a cell of Nanos holds.
func timeOf(n int64) time.Time { return time.Unix(0, n).UTC() }

// Intern returns s's code in v's dictionary, adding s when ix, the
// dictionary's index, lacks it. An added value is cloned, so that a
// dictionary entry never pins the larger string s may be cut from.
func (v *Column) Intern(ix *Index, s string) uint32 {
	if c, ok := ix.codes[s]; ok {
		return c
	}
	if ix.codes == nil {
		ix.codes = make(map[string]uint32)
	}
	c := uint32(len(v.Dict))
	s = strings.Clone(s)
	v.Dict = append(v.Dict, s)
	ix.codes[s] = c
	return c
}

// AppendValue appends one canonical value of the column's type
// (int64, float64, string, bool or time.Time), or nil for NULL, and
// reports whether x was one; when it was not, a zero cell is appended.
// A time outside UnixNanos's range is not one. ix is the index of a
// string column's dictionary (unused for other types).
func (v *Column) AppendValue(x any, ix *Index) bool {
	var ok bool
	switch v.Type {
	case TypeInt:
		v.Ints, ok = appendAs(v.Ints, x)
	case TypeFloat:
		v.Floats, ok = appendAs(v.Floats, x)
	case TypeString:
		var s string
		s, ok = x.(string)
		v.Codes = append(v.Codes, v.Intern(ix, s))
	case TypeBool:
		v.Bools, ok = appendAs(v.Bools, x)
	case TypeTime:
		t, isTime := x.(time.Time)
		n, inRange := UnixNanos(t)
		ok = isTime && inRange
		v.Nanos = append(v.Nanos, n)
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
		return v.Dict[v.Codes[i]]
	case TypeBool:
		return v.Bools[i]
	case TypeTime:
		return timeOf(v.Nanos[i])
	}
	return nil
}

// Reserve gives an empty vector room for n cells (and a string
// column's dictionary room for a few distinct values).
func (v *Column) Reserve(n int) {
	switch v.Type {
	case TypeInt:
		v.Ints = make([]int64, 0, n)
	case TypeFloat:
		v.Floats = make([]float64, 0, n)
	case TypeString:
		v.Codes = make([]uint32, 0, n)
		v.Dict = make([]string, 0, min(n, 8))
	case TypeBool:
		v.Bools = make([]bool, 0, n)
	case TypeTime:
		v.Nanos = make([]int64, 0, n)
	}
	v.Nulls = make([]bool, 0, n)
}

// AppendFrom appends src's cell at pos without boxing; src has the
// same type and a full-length Nulls. ix is the index of v's
// dictionary, into which a string cell is interned.
func (v *Column) AppendFrom(src *Column, pos int, ix *Index) {
	switch v.Type {
	case TypeInt:
		v.Ints = append(v.Ints, src.Ints[pos])
	case TypeFloat:
		v.Floats = append(v.Floats, src.Floats[pos])
	case TypeString:
		v.Codes = append(v.Codes, v.Intern(ix, src.Dict[src.Codes[pos]]))
	case TypeBool:
		v.Bools = append(v.Bools, src.Bools[pos])
	case TypeTime:
		v.Nanos = append(v.Nanos, src.Nanos[pos])
	}
	v.Nulls = append(v.Nulls, src.Nulls[pos])
}

// GrowAsAppends makes room for n more cells as n appends of one cell
// each would, growth step by growth step, so that a vector filled in
// batches ends with the capacity it would have had filled a cell at a
// time. (One append of many cells sizes the array to them, which starts
// another sequence of capacities.)
func (v *Column) GrowAsAppends(n int) {
	switch v.Type {
	case TypeInt:
		v.Ints = growAsAppends(v.Ints, n)
	case TypeFloat:
		v.Floats = growAsAppends(v.Floats, n)
	case TypeString:
		v.Codes = growAsAppends(v.Codes, n)
	case TypeBool:
		v.Bools = growAsAppends(v.Bools, n)
	case TypeTime:
		v.Nanos = growAsAppends(v.Nanos, n)
	}
	v.Nulls = growAsAppends(v.Nulls, n)
}

func growAsAppends[T any](s []T, n int) []T {
	var zero T
	for cap(s)-len(s) < n {
		s = append(s[:cap(s)], zero)[:len(s)]
	}
	return s
}

// AppendColumn appends every cell of src, a vector of the same type
// with a full-length Nulls. String cells are translated into v's
// dictionary (ix is its index) once per distinct code of src.
func (v *Column) AppendColumn(src *Column, ix *Index) {
	switch v.Type {
	case TypeInt:
		v.Ints = append(v.Ints, src.Ints...)
	case TypeFloat:
		v.Floats = append(v.Floats, src.Floats...)
	case TypeString:
		// to[c] is src code c's code+1 in v's dictionary, 0 until met. A
		// batch's dictionary usually fits the stack buffer.
		var buf [256]uint32
		to := buf[:min(len(src.Dict), len(buf))]
		if len(src.Dict) > len(buf) {
			to = make([]uint32, len(src.Dict))
		}
		for _, c := range src.Codes {
			if to[c] == 0 {
				to[c] = v.Intern(ix, src.Dict[c]) + 1
			}
			v.Codes = append(v.Codes, to[c]-1)
		}
	case TypeBool:
		v.Bools = append(v.Bools, src.Bools...)
	case TypeTime:
		v.Nanos = append(v.Nanos, src.Nanos...)
	}
	v.Nulls = append(v.Nulls, src.Nulls...)
}

// Translate maps src's codes into v's dictionary without changing
// either: to[c] is one more than the code src's value c has in v's
// dictionary (ix is its index) or, for a value the dictionary lacks,
// the code AppendColumn(src, ix) will give it. AppendColumn interns
// those values in the order src's cells first hold them, each once even
// when src's dictionary holds it twice, so they are numbered on from
// len(v.Dict) in that order. A code no cell of src holds stays 0; to
// has len(src.Dict) entries, all 0.
func (v *Column) Translate(src *Column, ix *Index, to []uint32) {
	var added map[string]uint32 // values new to v, by the code they will get
	next := uint32(len(v.Dict))
	for _, c := range src.Codes {
		if to[c] != 0 {
			continue
		}
		s := src.Dict[c]
		code, ok := ix.codes[s]
		if !ok {
			if code, ok = added[s]; !ok {
				if added == nil {
					added = make(map[string]uint32)
				}
				code, next = next, next+1
				added[s] = code
			}
		}
		to[c] = code + 1
	}
}

// Cell is the Go type of one column type's cells.
type Cell interface {
	int64 | float64 | string | bool | time.Time
}

// ColumnOf builds a vector with no NULL cell from the values of one
// column type. Numeric and bool vectors adopt values; strings are
// interned into a dictionary of the vector's own. It panics on a time
// UnixNanos cannot hold.
func ColumnOf[T Cell](values []T) Column {
	switch vs := any(values).(type) {
	case []int64:
		return Column{Type: TypeInt, Ints: vs}
	case []float64:
		return Column{Type: TypeFloat, Floats: vs}
	case []string:
		v := Column{Type: TypeString, Codes: make([]uint32, len(vs))}
		var ix Index
		for i, s := range vs {
			v.Codes[i] = v.Intern(&ix, s)
		}
		return v
	case []bool:
		return Column{Type: TypeBool, Bools: vs}
	case []time.Time:
		v := Column{Type: TypeTime, Nanos: make([]int64, len(vs))}
		for i, t := range vs {
			n, ok := UnixNanos(t)
			if !ok {
				panic(fmt.Sprintf("store: time %v is outside the range of a time column", t))
			}
			v.Nanos[i] = n
		}
		return v
	}
	panic("store: unreachable")
}

// StringView reads a string column: each cell is a code into Dict.
// The zero view (nil Codes) stands for a column that is not a string
// column.
type StringView struct {
	Codes []uint32
	Dict  []string
}

// At returns the string at pos ("" for a NULL cell).
func (s StringView) At(pos int) string { return s.Dict[s.Codes[pos]] }

// Code returns value's code, and false when the dictionary lacks it —
// then no cell of the view holds value.
func (s StringView) Code(value string) (uint32, bool) {
	for c, d := range s.Dict {
		if d == value {
			return uint32(c), true
		}
	}
	return 0, false
}

// Strings returns a string column's view (the zero view for another
// type).
func (v *Column) Strings() StringView { return StringView{Codes: v.Codes, Dict: v.Dict} }

// TimeView reads a time column. The zero view (nil Nanos) stands for a
// column that is not a time column.
type TimeView struct {
	Nanos []int64 // Unix nanoseconds, UTC
}

// At returns the time at pos, in UTC (the Unix epoch for a NULL cell).
func (t TimeView) At(pos int) time.Time { return timeOf(t.Nanos[pos]) }

// Times returns a time column's view (the zero view for another type).
func (v *Column) Times() TimeView { return TimeView{Nanos: v.Nanos} }
