package warehouse

import (
	"fmt"
	"time"
)

// Typed columnar storage. Each table column is one colVec: a typed
// vector ([]int64, []float64, []string, []bool or []time.Time) plus a
// parallel validity vector. Vectors are strictly append-only — updates
// and deletes tombstone the old row position and append a fresh one —
// which is what makes the copy-on-write snapshot protocol cheap: a
// published TableData captures the slice headers, and later appends
// land at indices beyond every published length (or in a reallocated
// array), so readers and the writer never touch the same element.
//
// Validity is a []bool rather than a packed bitmap on purpose: packing
// would make an append mutate a word that published snapshots share,
// forcing a copy of the whole bitmap on every insert (and tripping the
// race detector without it). One byte per cell buys race-free appends.
type colVec struct {
	typ      ColumnType
	nullable bool
	ints     []int64
	floats   []float64
	strs     []string
	bools    []bool
	times    []time.Time
	nulls    []bool // nulls[i] reports cell i is NULL
}

func newColVec(c Column) colVec { return colVec{typ: c.Type, nullable: c.Nullable} }

// appendVal appends one canonical value (int64/float64/string/bool/
// time.Time, or nil for NULL) as produced by coerce.
func (v *colVec) appendVal(x any) {
	null := x == nil
	switch v.typ {
	case TypeInt:
		var c int64
		if !null {
			c = x.(int64)
		}
		v.ints = append(v.ints, c)
	case TypeFloat:
		var c float64
		if !null {
			c = x.(float64)
		}
		v.floats = append(v.floats, c)
	case TypeString:
		var c string
		if !null {
			c = x.(string)
		}
		v.strs = append(v.strs, c)
	case TypeBool:
		var c bool
		if !null {
			c = x.(bool)
		}
		v.bools = append(v.bools, c)
	case TypeTime:
		var c time.Time
		if !null {
			c = x.(time.Time)
		}
		v.times = append(v.times, c)
	}
	v.nulls = append(v.nulls, null)
}

// value materializes cell i as a canonical any (nil for NULL).
func (v *colVec) value(i int) any {
	if v.nulls[i] {
		return nil
	}
	switch v.typ {
	case TypeInt:
		return v.ints[i]
	case TypeFloat:
		return v.floats[i]
	case TypeString:
		return v.strs[i]
	case TypeBool:
		return v.bools[i]
	case TypeTime:
		return v.times[i]
	}
	return nil
}

// reserve gives an empty vector room for n cells.
func (v *colVec) reserve(n int) {
	switch v.typ {
	case TypeInt:
		v.ints = make([]int64, 0, n)
	case TypeFloat:
		v.floats = make([]float64, 0, n)
	case TypeString:
		v.strs = make([]string, 0, n)
	case TypeBool:
		v.bools = make([]bool, 0, n)
	case TypeTime:
		v.times = make([]time.Time, 0, n)
	}
	v.nulls = make([]bool, 0, n)
}

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
	cols []colVec
	base int
	rows int
}

func (c *tdChunk) columns() []colVec {
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
	cols []colVec
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
func (ch ColChunk) IntCol(i int) []int64 { return ch.cols[i].ints }

// FloatCol returns column i's float64 vector (nil unless TypeFloat).
func (ch ColChunk) FloatCol(i int) []float64 { return ch.cols[i].floats }

// StringCol returns column i's string vector (nil unless TypeString).
func (ch ColChunk) StringCol(i int) []string { return ch.cols[i].strs }

// BoolCol returns column i's bool vector (nil unless TypeBool).
func (ch ColChunk) BoolCol(i int) []bool { return ch.cols[i].bools }

// TimeCol returns column i's time vector (nil unless TypeTime).
func (ch ColChunk) TimeCol(i int) []time.Time { return ch.cols[i].times }

// NullCol returns column i's validity vector (true = NULL).
func (ch ColChunk) NullCol(i int) []bool { return ch.cols[i].nulls }

// RowsChunk converts boxed positional rows (binlog insert payloads for
// this table) into a transient chunk laid out like the table — the one
// boxed-rows → columns bridge, so readers of fact rows need only the
// columnar decoder. Every cell is coerced exactly as an insert would
// coerce it: wrong arity, a NULL in a non-nullable column or a cell the
// column type cannot hold is an error naming the row, never a zeroed
// value. The chunk has no tombstones and does not alias rows.
func (t *Table) RowsChunk(rows [][]any) (ColChunk, error) {
	vecs := freshCols(t.def)
	for i := range vecs {
		vecs[i].reserve(len(rows))
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
			vecs[i].appendVal(v)
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

// ColumnVector is one column of a ColumnData: exactly one typed payload
// is set, matching Type; Nulls marks NULL cells (nil = none null).
type ColumnVector struct {
	Type   ColumnType
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Times  []time.Time
	Nulls  []bool
}

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
		n, typed := 0, 0
		count := func(l int, active bool) {
			if active {
				typed++
				n = l
			}
		}
		count(len(v.Ints), v.Ints != nil)
		count(len(v.Floats), v.Floats != nil)
		count(len(v.Strs), v.Strs != nil)
		count(len(v.Bools), v.Bools != nil)
		count(len(v.Times), v.Times != nil)
		if typed > 1 {
			return fmt.Errorf("warehouse: load for table %q column %q carries mixed-type data (%d typed payloads)",
				def.Name, c.Name, typed)
		}
		var present bool // the payload of the declared type
		switch c.Type {
		case TypeInt:
			present = v.Ints != nil
		case TypeFloat:
			present = v.Floats != nil
		case TypeString:
			present = v.Strs != nil
		case TypeBool:
			present = v.Bools != nil
		case TypeTime:
			present = v.Times != nil
		}
		if cd.Rows > 0 && !present {
			return fmt.Errorf("warehouse: load for table %q column %q: missing %s payload",
				def.Name, c.Name, c.Type)
		}
		if typed == 1 && n != cd.Rows {
			return fmt.Errorf("warehouse: load for table %q column %q has %d values, want %d rows",
				def.Name, c.Name, n, cd.Rows)
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

// view wraps one validated ColumnVector's slices as a column vector,
// without copying; the validity vector stays nil when v carries none.
func (v *ColumnVector) view(c Column) colVec {
	return colVec{typ: c.Type, nullable: c.Nullable,
		ints: v.Ints, floats: v.Floats, strs: v.Strs, bools: v.Bools, times: v.Times, nulls: v.Nulls}
}

// toVec converts one validated ColumnVector into internal form. The
// vector's slices are adopted, not copied: the caller must not mutate
// cd afterwards (bulk-load producers build a fresh ColumnData per
// load).
func (v *ColumnVector) toVec(c Column, rows int) colVec {
	out := v.view(c)
	if out.nulls == nil {
		out.nulls = make([]bool, rows)
	}
	return out
}

// ColumnData exports the snapshot's live rows in bulk columnar form,
// suitable for LoadColumns into another warehouse (loose-dump loads,
// backup restores). When the snapshot holds no tombstones the returned
// vectors share the snapshot's immutable storage; do not mutate them.
func (td *TableData) ColumnData() *ColumnData { return td.columnData() }

// columnData exports the snapshot's live rows in bulk form. When the
// snapshot is a single heap-backed chunk with no tombstones, its own
// (immutable) vectors are shared; otherwise the rows are copied into
// fresh vectors. Disk-backed chunks always copy — the export may be
// adopted by another warehouse (loose-dump loads) and must not alias a
// file mapping whose lifetime it does not control.
func (td *TableData) columnData() *ColumnData {
	def := td.lay.def
	cd := &ColumnData{Rows: td.live, Names: make([]string, len(def.Columns)), Cols: make([]ColumnVector, len(def.Columns))}
	for i, c := range def.Columns {
		cd.Names[i] = c.Name
	}
	if td.live == td.rows && len(td.chunks) == 1 &&
		(td.chunks[0].sc == nil || td.chunks[0].sc.h.HeapBacked()) {
		cols := td.chunks[0].columns()
		for i := range cols {
			v := &cols[i]
			cd.Cols[i] = ColumnVector{Type: v.typ, Ints: v.ints, Floats: v.floats,
				Strs: v.strs, Bools: v.bools, Times: v.times, Nulls: v.nulls}
			ensureTyped(&cd.Cols[i], td.rows)
		}
		return cd
	}
	dsts := make([]colVec, len(def.Columns))
	for i, c := range def.Columns {
		dsts[i] = newColVec(c)
	}
	for ci := range td.chunks {
		c := &td.chunks[ci]
		cols := c.columns()
		for lp := 0; lp < c.rows; lp++ {
			if td.dead[c.base+lp] {
				continue
			}
			for i := range dsts {
				dsts[i].appendFrom(&cols[i], lp)
			}
		}
	}
	for i := range dsts {
		dst := &dsts[i]
		cd.Cols[i] = ColumnVector{Type: dst.typ, Ints: dst.ints, Floats: dst.floats,
			Strs: dst.strs, Bools: dst.bools, Times: dst.times, Nulls: dst.nulls}
		ensureTyped(&cd.Cols[i], td.live)
	}
	return cd
}

// ensureTyped materializes an empty typed payload for zero-row or
// all-null vectors so Validate's payload check holds after a gob round
// trip (gob drops empty slices).
func ensureTyped(v *ColumnVector, rows int) {
	if rows == 0 {
		return
	}
	switch v.Type {
	case TypeInt:
		if v.Ints == nil {
			v.Ints = make([]int64, rows)
		}
	case TypeFloat:
		if v.Floats == nil {
			v.Floats = make([]float64, rows)
		}
	case TypeString:
		if v.Strs == nil {
			v.Strs = make([]string, rows)
		}
	case TypeBool:
		if v.Bools == nil {
			v.Bools = make([]bool, rows)
		}
	case TypeTime:
		if v.Times == nil {
			v.Times = make([]time.Time, rows)
		}
	}
}
