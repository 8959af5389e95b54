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

// TableData is an immutable snapshot of one table's contents, published
// atomically at the end of each write transaction. Readers iterate it
// without any lock: global positions [0, rows) index the tombstone
// vector, and are split across an ordered list of contiguous chunks —
// sealed segments (possibly cold, materialized on first touch) followed
// by the hot tail. Tombstoned positions must be skipped via
// Tombstones(). Scan-heavy readers iterate chunk-wise via NumChunks/
// Chunk so cold segments are materialized one at a time instead of all
// at once.
type TableData struct {
	lay    *layout
	chunks []tdChunk
	dead   []bool
	rows   int // total slots, tombstones included
	live   int // rows minus tombstones
}

// tdChunk is one contiguous piece of a snapshot: a sealed segment (sc
// set) or a captured hot tail (cols set).
type tdChunk struct {
	sc   *sealedChunk
	cols []ColumnVector
	base int
	rows int
}

func (c *tdChunk) columns() []ColumnVector {
	if c.sc != nil {
		return c.sc.columns()
	}
	return c.cols
}

// Len returns the number of live rows in the snapshot.
func (td *TableData) Len() int { return td.live }

// NumChunks returns how many contiguous chunks the snapshot spans.
func (td *TableData) NumChunks() int { return len(td.chunks) }

// Chunk materializes (if cold) and returns chunk i. Iterating
// chunk-by-chunk — resolving each only when the scan reaches it — is
// what keeps a scan's resident footprint at one segment plus the
// backend's budget rather than the whole table.
func (td *TableData) Chunk(i int) ColChunk {
	c := &td.chunks[i]
	return ColChunk{
		lay:  td.lay,
		cols: c.columns(),
		dead: td.dead[c.base : c.base+c.rows],
		base: c.base,
		rows: c.rows,
	}
}

// ColChunk is a contiguous columnar view of part of a snapshot. All
// vectors are indexed by chunk-local position [0, Rows()); Base maps
// local to global positions. Never mutate a returned vector, and do
// not retain vectors beyond the snapshot's lifetime: for disk-backed
// segments the numeric vectors alias a file mapping that the snapshot
// keeps alive.
type ColChunk struct {
	lay  *layout
	cols []ColumnVector
	dead []bool
	base int
	rows int
}

// Rows returns the chunk's row count, tombstones included.
func (ch ColChunk) Rows() int { return ch.rows }

// Base returns the chunk's first global row position.
func (ch ColChunk) Base() int { return ch.base }

// Tombstones returns the chunk-local tombstone vector.
func (ch ColChunk) Tombstones() []bool { return ch.dead }

// ColIndex resolves a column name to its vector position.
func (ch ColChunk) ColIndex(name string) (int, bool) {
	i, ok := ch.lay.colIndex[name]
	return i, ok
}

// IntCol returns column i's int64 vector (nil when i is not a TypeInt
// column). Never mutate the returned slice.
func (ch ColChunk) IntCol(i int) []int64 { return ch.cols[i].Ints }

// FloatCol returns column i's float64 vector (nil unless TypeFloat).
func (ch ColChunk) FloatCol(i int) []float64 { return ch.cols[i].Floats }

// StringCol returns column i's string view (the zero view, nil Codes,
// unless TypeString). Never mutate the view's slices.
func (ch ColChunk) StringCol(i int) StringView { return ch.cols[i].Strings() }

// BoolCol returns column i's bool vector (nil unless TypeBool).
func (ch ColChunk) BoolCol(i int) []bool { return ch.cols[i].Bools }

// TimeCol returns column i's time view (the zero view, nil Nanos,
// unless TypeTime).
func (ch ColChunk) TimeCol(i int) TimeView { return ch.cols[i].Times() }

// StringView reads a string column: At resolves a cell's code through
// the chunk's dictionary.
type StringView = store.StringView

// TimeView reads a time column: At turns a cell's Unix nanoseconds into
// a UTC time.
type TimeView = store.TimeView

// NullCol returns column i's validity vector (true = NULL).
func (ch ColChunk) NullCol(i int) []bool { return ch.cols[i].Nulls }

// RowsChunk converts boxed positional rows (binlog insert payloads for
// this table) into a transient chunk laid out like the table — the one
// boxed-rows → columns bridge, so readers of fact rows need only the
// columnar decoder. Every cell is coerced exactly as an insert would
// coerce it: wrong arity, a NULL in a non-nullable column or a cell the
// column type cannot hold is an error naming the row, never a zeroed
// value. The chunk has no tombstones, does not alias rows and interns
// its strings into dictionaries of its own.
func (t *Table) RowsChunk(rows [][]any) (ColChunk, error) {
	vecs, ixs := freshCols(t.def), make([]store.Index, len(t.def.Columns))
	for i := range vecs {
		vecs[i].Reserve(len(rows))
	}
	for n, row := range rows {
		if err := t.checkArity(len(row)); err != nil {
			return ColChunk{}, fmt.Errorf("row %d: %w", n, err)
		}
		for i := range vecs {
			v, err := t.coerceAt(i, row[i])
			if err != nil {
				return ColChunk{}, fmt.Errorf("row %d: %w", n, err)
			}
			vecs[i].AppendValue(v, &ixs[i])
		}
	}
	return ColChunk{lay: t.lay, cols: vecs, dead: make([]bool, len(rows)), rows: len(rows)}, nil
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
// slices are referenced, not copied; the shared validity vector is
// full (len == cap), and so is every dictionary, so an append to any
// one column reallocates them and never writes into cd's arrays.
func (cd *ColumnData) vectors() []ColumnVector {
	cols := slices.Clone(cd.Cols)
	var noNulls []bool
	for i := range cols {
		cols[i].Dict = slices.Clip(cols[i].Dict)
		if cols[i].Nulls == nil {
			if noNulls == nil {
				noNulls = make([]bool, cd.Rows)
			}
			cols[i].Nulls = noNulls
		}
	}
	return cols
}

// ColumnData exports the snapshot's live rows in bulk columnar form:
// the payload of a LOAD event (SnapshotEvents), which another warehouse
// may apply. When the snapshot is a single heap-backed chunk with no
// tombstones, its own (immutable) vectors are shared — do not mutate
// them (each dictionary clipped to its length, so that an append to
// the export reallocates rather than writing where the table will);
// otherwise the rows are copied into fresh vectors. Disk-backed
// chunks always copy — the export may be adopted by another warehouse
// and must not alias a file mapping whose lifetime it does not control.
func (td *TableData) ColumnData() *ColumnData {
	def := td.lay.def
	cd := &ColumnData{Rows: td.live, Names: make([]string, len(def.Columns))}
	for i, c := range def.Columns {
		cd.Names[i] = c.Name
	}
	if td.live == td.rows && len(td.chunks) == 1 &&
		(td.chunks[0].sc == nil || td.chunks[0].sc.h.HeapBacked()) {
		cd.Cols = slices.Clone(td.chunks[0].columns())
		for i := range cd.Cols {
			cd.Cols[i].Dict = slices.Clip(cd.Cols[i].Dict)
		}
		return cd
	}
	cd.Cols = freshCols(def)
	ixs := make([]store.Index, len(def.Columns))
	for ci := range td.chunks {
		c := &td.chunks[ci]
		cols := c.columns()
		for lp := 0; lp < c.rows; lp++ {
			if td.dead[c.base+lp] {
				continue
			}
			for i := range cd.Cols {
				cd.Cols[i].AppendFrom(&cols[i], lp, &ixs[i])
			}
		}
	}
	return cd
}
