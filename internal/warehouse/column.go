package warehouse

import (
	"fmt"
	"slices"

	"xdmodfed/internal/warehouse/store"
)

// Typed columnar storage. Each table column is one ColumnVector
// (store.Column): a typed vector plus a parallel validity vector,
// strictly append-only (see store.Column for why that makes the
// copy-on-write snapshot protocol cheap). A string column's cells are
// codes into a dictionary and a time column's are Unix nanoseconds, so
// no vector holds a pointer per cell.

// layout is the immutable name→position mapping shared by a table, its
// published snapshots and every Row handed out; it never changes after
// table creation.
type layout struct {
	def      TableDef
	colIndex map[string]int
}

func newLayout(def TableDef) *layout {
	l := &layout{def: def, colIndex: make(map[string]int, len(def.Columns))}
	for i, c := range def.Columns {
		l.colIndex[c.Name] = i
	}
	return l
}

// TableData is a columnar view of a table's rows: every vector, and
// the tombstone vector, is indexed by position [0, Rows()), and
// tombstoned positions must be skipped. Never mutate a returned vector.
//
// A published view (Table.Data, DB.DataFor) is an immutable snapshot,
// published atomically at the end of each write transaction: the
// table's vectors as they stood, captured by their headers. Readers
// iterate it without any lock. The writer's later appends land beyond
// Rows() (or in a reallocated array), and a compaction, bulk load or
// truncate gives the table new vectors, so a snapshot's cells never
// change. A writer view (Table.View) reads the writer state instead,
// the current transaction's changes included, and is valid only until
// the table's next write. RowsChunk's transient view belongs to no
// table. A Change's view is the table's vectors captured at commit,
// before any compaction, and as immutable as a published one; the rows
// its Change names are read from it tombstoned or not.
type TableData struct {
	lay  *layout
	cols []ColumnVector
	dead []bool
	rows int // total slots, tombstones included
	live int // rows minus tombstones
}

// Len returns the number of live rows in the view.
func (td *TableData) Len() int { return td.live }

// Rows returns the view's row count, tombstones included.
func (td *TableData) Rows() int { return td.rows }

// Tombstones returns the view's tombstone vector.
func (td *TableData) Tombstones() []bool { return td.dead }

// ColIndex resolves a column name to its vector position, which is
// also its position in a binlog event's row.
func (td *TableData) ColIndex(name string) (int, bool) {
	i, ok := td.lay.colIndex[name]
	return i, ok
}

// IntCol returns column i's int64 vector (nil when i is not a TypeInt
// column). Never mutate the returned slice.
func (td *TableData) IntCol(i int) []int64 { return td.cols[i].Ints }

// FloatCol returns column i's float64 vector (nil unless TypeFloat).
func (td *TableData) FloatCol(i int) []float64 { return td.cols[i].Floats }

// StringCol returns column i's string view (the zero view, nil Codes,
// unless TypeString). Never mutate the view's slices.
func (td *TableData) StringCol(i int) StringView { return td.cols[i].Strings() }

// BoolCol returns column i's bool vector (nil unless TypeBool).
func (td *TableData) BoolCol(i int) []bool { return td.cols[i].Bools }

// TimeCol returns column i's time view (the zero view, nil Nanos,
// unless TypeTime).
func (td *TableData) TimeCol(i int) TimeView { return td.cols[i].Times() }

// NullCol returns column i's validity vector (true = NULL).
func (td *TableData) NullCol(i int) []bool { return td.cols[i].Nulls }

// StringView reads a string column: At resolves a cell's code through
// the view's dictionary.
type StringView = store.StringView

// TimeView reads a time column: At turns a cell's Unix nanoseconds into
// a UTC time.
type TimeView = store.TimeView

// RowsChunk converts boxed positional rows (decoded binlog insert
// payloads for this table) into a transient view laid out like the
// table — the one boxed-rows → columns bridge, for a reader handed
// boxed rows (a pushdown sender's fold), so readers of fact rows need
// only the columnar decoder. A write's own rows need no bridge: its
// Change names them in a view of the table. Every cell is coerced exactly as an insert would
// coerce it: wrong arity, a NULL in a non-nullable column or a cell the
// column type cannot hold is an error naming the row, never a zeroed
// value. The view has no tombstones, does not alias rows and interns
// its strings into dictionaries of its own.
func (t *Table) RowsChunk(rows [][]any) (*TableData, error) {
	vecs, ixs := freshCols(t.def), make([]store.Index, len(t.def.Columns))
	for i := range vecs {
		vecs[i].Reserve(len(rows))
	}
	for n, row := range rows {
		if err := t.checkArity(len(row)); err != nil {
			return nil, fmt.Errorf("row %d: %w", n, err)
		}
		for i := range vecs {
			v, err := t.coerceAt(i, row[i])
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", n, err)
			}
			vecs[i].AppendValue(v, &ixs[i])
		}
	}
	return &TableData{lay: t.lay, cols: vecs, dead: make([]bool, len(rows)), rows: len(rows), live: len(rows)}, nil
}

// ColumnData carries a whole table's contents in columnar form: the
// payload of bulk loads (EvLoad binlog events, snapshot files, loose
// dumps). Vectors are indexed [0, Rows) with no tombstones.
type ColumnData struct {
	Names []string // column names, in table-definition order
	Cols  []ColumnVector
	Rows  int
}

// ColumnVector is one column of a ColumnData, and the vector every
// table chunk holds: exactly one typed payload is set, matching Type
// (for a string column, codes and the dictionary they index); Nulls
// marks NULL cells (nil = none null).
type ColumnVector = store.Column

// Validate checks cd against a table definition: the column list must
// match the definition exactly and every vector must carry exactly one
// typed payload of the declared type and length. This is the strict
// gate that replaces the old silent-zeroing behavior: a snapshot or
// load event whose payload types disagree with the schema is rejected
// with a clear error instead of reading as zeros.
func (cd *ColumnData) Validate(def TableDef) error {
	if cd == nil {
		return fmt.Errorf("warehouse: load for table %q carries no column data", def.Name)
	}
	if cd.Rows < 0 {
		return fmt.Errorf("warehouse: load for table %q declares %d rows", def.Name, cd.Rows)
	}
	if len(cd.Names) != len(def.Columns) || len(cd.Cols) != len(def.Columns) {
		return fmt.Errorf("warehouse: load for table %q has %d columns, definition has %d",
			def.Name, len(cd.Names), len(def.Columns))
	}
	for i, c := range def.Columns {
		if cd.Names[i] != c.Name {
			return fmt.Errorf("warehouse: load for table %q column %d is %q, definition says %q",
				def.Name, i, cd.Names[i], c.Name)
		}
		v := &cd.Cols[i]
		if v.Type != c.Type {
			return fmt.Errorf("warehouse: load for table %q column %q carries %s data, definition says %s",
				def.Name, c.Name, v.Type, c.Type)
		}
		n, typed, present := 0, 0, false // present: the payload of the declared type
		count := func(t ColumnType, l int, active bool) {
			if active {
				typed++
				n = l
				present = present || t == c.Type
			}
		}
		count(TypeInt, len(v.Ints), v.Ints != nil)
		count(TypeFloat, len(v.Floats), v.Floats != nil)
		count(TypeString, len(v.Codes), v.Codes != nil || v.Dict != nil)
		count(TypeBool, len(v.Bools), v.Bools != nil)
		count(TypeTime, len(v.Nanos), v.Nanos != nil)
		if typed > 1 {
			return fmt.Errorf("warehouse: load for table %q column %q carries mixed-type data (%d typed payloads)",
				def.Name, c.Name, typed)
		}
		if cd.Rows > 0 && !present {
			return fmt.Errorf("warehouse: load for table %q column %q: missing %s payload",
				def.Name, c.Name, c.Type)
		}
		if typed == 1 && n != cd.Rows {
			return fmt.Errorf("warehouse: load for table %q column %q has %d values, want %d rows",
				def.Name, c.Name, n, cd.Rows)
		}
		for pos, code := range v.Codes {
			if int(code) >= len(v.Dict) {
				return fmt.Errorf("warehouse: load for table %q column %q row %d holds code %d of a %d-entry dictionary",
					def.Name, c.Name, pos, code, len(v.Dict))
			}
		}
		if v.Nulls != nil && len(v.Nulls) != cd.Rows {
			return fmt.Errorf("warehouse: load for table %q column %q has %d validity entries, want %d rows",
				def.Name, c.Name, len(v.Nulls), cd.Rows)
		}
		if !c.Nullable && v.Nulls != nil {
			for pos, isNull := range v.Nulls {
				if isNull {
					return fmt.Errorf("warehouse: load for table %q column %q row %d is NULL but the column is not nullable",
						def.Name, c.Name, pos)
				}
			}
		}
	}
	return nil
}

// vectors returns cd's columns, each with a full-length validity
// vector: columns without one share a single all-false vector. cd's
// slices are referenced, not copied, and each is clipped (len == cap),
// as is the shared validity vector, so an append to any one vector
// reallocates it and never writes into an array that cd — or whatever
// else holds cd: a logged LOAD event, another table — shares.
func (cd *ColumnData) vectors() []ColumnVector {
	cols := slices.Clone(cd.Cols)
	var noNulls []bool
	for i := range cols {
		v := &cols[i]
		v.Ints, v.Floats, v.Codes = slices.Clip(v.Ints), slices.Clip(v.Floats), slices.Clip(v.Codes)
		v.Dict, v.Bools, v.Nanos = slices.Clip(v.Dict), slices.Clip(v.Bools), slices.Clip(v.Nanos)
		v.Nulls = slices.Clip(v.Nulls)
		if v.Nulls == nil {
			if noNulls == nil {
				noNulls = make([]bool, cd.Rows)
			}
			v.Nulls = noNulls
		}
	}
	return cols
}

// ColumnData exports the snapshot's live rows in bulk columnar form:
// the payload of a LOAD event (SnapshotEvents), which another warehouse
// may apply. A non-empty snapshot with no tombstone shares its own
// (immutable) vectors — do not mutate them; a table that adopts them
// clips them first (ReplaceAllColumns) — and any other has its live
// rows copied into fresh vectors.
func (td *TableData) ColumnData() *ColumnData {
	def := td.lay.def
	cd := &ColumnData{Rows: td.live, Names: make([]string, len(def.Columns))}
	for i, c := range def.Columns {
		cd.Names[i] = c.Name
	}
	if td.live == td.rows && td.rows > 0 {
		cd.Cols = slices.Clone(td.cols)
		return cd
	}
	cd.Cols = freshCols(def)
	ixs := make([]store.Index, len(def.Columns))
	for pos := 0; pos < td.rows; pos++ {
		if td.dead[pos] {
			continue
		}
		for i := range cd.Cols {
			cd.Cols[i].AppendFrom(&td.cols[i], pos, &ixs[i])
		}
	}
	return cd
}
