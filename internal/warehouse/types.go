// Package warehouse implements the embedded data warehouse that backs
// every XDMoD instance in this reproduction. The real Open XDMoD uses
// MySQL/MariaDB; federation only requires a transactional, schema/table
// structured store that emits a binary log of its mutations, so this
// package provides exactly that: typed tables grouped into named
// schemas, primary-key and secondary indexes, snapshot persistence, and
// an append-only binlog that replicators can tail (the MySQL binlog
// analog that Tungsten Replicator reads in the paper).
package warehouse

import (
	"fmt"
	"strconv"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// ColumnType enumerates the value types a column may hold; it is the
// segment store's enum, so a vector means the same thing in both tiers.
type ColumnType = store.ColumnType

// Supported column types.
const (
	TypeInt    = store.TypeInt
	TypeFloat  = store.TypeFloat
	TypeString = store.TypeString
	TypeBool   = store.TypeBool
	TypeTime   = store.TypeTime
)

// Column describes a single table column.
type Column struct {
	Name     string
	Type     ColumnType
	Nullable bool
}

// TableDef is the schema of a table: its ordered columns, the primary
// key (a subset of column names; may be empty for append-only fact
// tables), and optional secondary index definitions.
type TableDef struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
	Indexes    [][]string
	// Derived marks a table whose contents are recomputable from other
	// tables (aggregation and partial-aggregate tables). Its owner
	// recreates and refills it on every start, so nothing would ever
	// read a log of it: neither its DDL nor its mutations are logged,
	// on any DB (see Table.logged).
	Derived bool
}

// Clone returns a deep copy of the definition.
func (d TableDef) Clone() TableDef {
	c := TableDef{Name: d.Name, Derived: d.Derived}
	c.Columns = append([]Column(nil), d.Columns...)
	c.PrimaryKey = append([]string(nil), d.PrimaryKey...)
	for _, ix := range d.Indexes {
		c.Indexes = append(c.Indexes, append([]string(nil), ix...))
	}
	return c
}

// Validate checks the definition for internal consistency.
func (d TableDef) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("warehouse: table definition missing name")
	}
	if len(d.Columns) == 0 {
		return fmt.Errorf("warehouse: table %q has no columns", d.Name)
	}
	seen := make(map[string]bool, len(d.Columns))
	for _, c := range d.Columns {
		if c.Name == "" {
			return fmt.Errorf("warehouse: table %q has an unnamed column", d.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("warehouse: table %q duplicates column %q", d.Name, c.Name)
		}
		switch c.Type {
		case TypeInt, TypeFloat, TypeString, TypeBool, TypeTime:
		default:
			return fmt.Errorf("warehouse: table %q column %q has invalid type %d", d.Name, c.Name, c.Type)
		}
		seen[c.Name] = true
	}
	for _, k := range d.PrimaryKey {
		if !seen[k] {
			return fmt.Errorf("warehouse: table %q primary key references unknown column %q", d.Name, k)
		}
	}
	for _, ix := range d.Indexes {
		if len(ix) == 0 {
			return fmt.Errorf("warehouse: table %q has an empty index definition", d.Name)
		}
		for _, k := range ix {
			if !seen[k] {
				return fmt.Errorf("warehouse: table %q index references unknown column %q", d.Name, k)
			}
		}
	}
	return nil
}

// coerce normalizes v to the canonical Go representation for the column
// type: int64, float64, string, bool or time.Time. nil is permitted for
// nullable columns. A value already in canonical form is returned as
// the interface it arrived in, not re-boxed — most cells on the insert
// and rows→chunk paths are, and re-boxing allocates per cell.
func coerce(col Column, v any) (any, error) {
	if v == nil {
		if !col.Nullable {
			return nil, fmt.Errorf("warehouse: column %q is not nullable", col.Name)
		}
		return nil, nil
	}
	switch col.Type {
	case TypeInt:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case uint64:
			return int64(x), nil
		case float64:
			return int64(x), nil
		}
	case TypeFloat:
		switch x := v.(type) {
		case float64:
			return v, nil
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case TypeString:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case TypeBool:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	case TypeTime:
		if x, ok := v.(time.Time); ok {
			if x.Location() == time.UTC {
				return v, nil
			}
			return x.UTC(), nil
		}
	}
	return nil, fmt.Errorf("warehouse: column %q (%s) cannot hold %T value", col.Name, col.Type, v)
}

// appendKeyPart renders one value in key-safe form. It is the one
// rendering of a boxed key cell: appendKeyAt yields the same bytes for
// the same value held in a column vector.
func appendKeyPart(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 0)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case string:
		return append(b, x...)
	case bool:
		if x {
			return append(b, '1')
		}
		return append(b, '0')
	case time.Time:
		return strconv.AppendInt(b, x.UnixNano(), 10)
	default:
		return append(b, fmt.Sprintf("%v", x)...) // not Appendf: b must not escape
	}
}

// appendKeyVals renders the composite key of the cells of vals at the
// positions idx, joined by the unit separator (which cannot collide
// with a numeric encoding).
func appendKeyVals(b []byte, vals []any, idx []int) []byte {
	for n, ci := range idx {
		if n > 0 {
			b = append(b, 0x1f)
		}
		b = appendKeyPart(b, vals[ci])
	}
	return b
}

// appendKey renders the composite key of parts, in order.
func appendKey(b []byte, parts []any) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = appendKeyPart(b, p)
	}
	return b
}

// encodeKeyPart renders one value into a key-safe string.
func encodeKeyPart(v any) string { return string(appendKeyPart(nil, v)) }

// encodeKey builds a composite key string for index maps.
func encodeKey(parts []any) string {
	var buf [64]byte // most keys fit: the string is then the only allocation
	return string(appendKey(buf[:0], parts))
}
