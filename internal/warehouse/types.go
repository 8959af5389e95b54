// Package warehouse implements the embedded data warehouse that backs
// every XDMoD instance in this reproduction. The real Open XDMoD uses
// MySQL/MariaDB; federation only requires a transactional, schema/table
// structured store that emits a binary log of its mutations, so this
// package provides exactly that: typed tables grouped into named
// schemas, a primary-key index per keyed table, snapshot persistence, and
// an append-only binlog that replicators can tail (the MySQL binlog
// analog that Tungsten Replicator reads in the paper).
package warehouse

import (
	"fmt"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// ColumnType enumerates the value types a column may hold; it is the
// column vector's enum (store.ColumnType).
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

// TableDef is the schema of a table: its ordered columns and the
// primary key (a subset of column names; may be empty for append-only
// fact tables). A table is found by its primary key or scanned; it has
// no other index.
type TableDef struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
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
	return nil
}

// coerce normalizes v to the canonical Go representation for the column
// type: int64, float64, string, bool or time.Time. nil is permitted for
// nullable columns. A time must lie where Unix nanoseconds are defined
// (store.UnixNanos): a time column stores them, and a key hashes them.
// A value already in canonical form is returned as the interface it
// arrived in, not re-boxed — most cells on the insert and rows→chunk
// paths are, and re-boxing allocates per cell.
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
			if _, ok := store.UnixNanos(x); !ok {
				return nil, fmt.Errorf("warehouse: column %q (%s) cannot hold %v: outside the years 1678 to 2262", col.Name, col.Type, x)
			}
			if x.Location() == time.UTC {
				return v, nil
			}
			return x.UTC(), nil
		}
	}
	return nil, fmt.Errorf("warehouse: column %q (%s) cannot hold %T value", col.Name, col.Type, v)
}
