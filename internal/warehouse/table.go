package warehouse

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Row is one table row with access to column values by name: a
// position into a set of column vectors (table scans, key lookups,
// snapshot iteration). It is a plain value and allocates nothing.
type Row struct {
	lay  *layout
	cols []ColumnVector
	pos  int
}

// Get returns the value of the named column, or nil when the column
// does not exist (callers that care should use Lookup).
func (r Row) Get(col string) any {
	v, _ := r.Lookup(col)
	return v
}

// Lookup returns the value of the named column and whether the column
// exists in the row's table.
func (r Row) Lookup(col string) (any, bool) {
	i, ok := r.lay.colIndex[col]
	if !ok {
		return nil, false
	}
	return r.cols[i].Value(r.pos), true
}

// Int returns the column as int64 (zero when null, absent or not an
// integer column).
func (r Row) Int(col string) int64 {
	i, ok := r.lay.colIndex[col]
	if !ok {
		return 0
	}
	v := &r.cols[i]
	if v.Type != TypeInt || v.Nulls[r.pos] {
		return 0
	}
	return v.Ints[r.pos]
}

// Float returns the column as float64, widening integers.
func (r Row) Float(col string) float64 {
	i, ok := r.lay.colIndex[col]
	if !ok {
		return 0
	}
	v := &r.cols[i]
	if v.Nulls[r.pos] {
		return 0
	}
	switch v.Type {
	case TypeFloat:
		return v.Floats[r.pos]
	case TypeInt:
		return float64(v.Ints[r.pos])
	}
	return 0
}

// String returns the column as a string (empty when null or absent).
func (r Row) String(col string) string {
	i, ok := r.lay.colIndex[col]
	if !ok {
		return ""
	}
	v := &r.cols[i]
	if v.Type != TypeString || v.Nulls[r.pos] {
		return ""
	}
	return v.Strs[r.pos]
}

// Values returns a copy of the row's values, in column order.
func (r Row) Values() []any {
	out := make([]any, len(r.cols))
	for i := range r.cols {
		out[i] = r.cols[i].Value(r.pos)
	}
	return out
}

// Table is a typed columnar table. The writer-side state (column
// vectors, tombstones, primary-key and secondary-index maps) is
// synchronized by the owning DB: all mutating methods and the
// read methods below must be called while holding the DB lock, which
// the Schema/DB wrappers do. Data() is the exception — it returns the
// last published immutable snapshot and may be called from anywhere
// without locking.
//
// Vectors are append-only: an update or upsert tombstones the old
// position and appends the replacement, so a published snapshot's
// cells are never overwritten. The tombstone vector is the only state
// shared with snapshots that a writer must touch below the published
// boundary, and it is copied on first such write per transaction.
//
// Storage is tiered (see segment.go): global positions [0, sealedRows)
// live in immutable sealed chunks held by the DB's segment backend,
// and [sealedRows, rows) in the hot tail vectors that writes append
// to. The tombstone vector and the key maps always span both tiers in
// global positions.
type Table struct {
	def    TableDef
	lay    *layout
	schema string
	db     *DB
	// logged is "will anything ever read a log of this table?", fixed
	// at creation: the DB keeps a binlog (Options.NoBinlog) and the
	// table is not derived (TableDef.Derived). Every logging site
	// checks it before it builds an event payload.
	logged     bool
	sch        *Schema // owning schema, whose epoch the table's commits bump
	sealed     []*sealedChunk
	sealedRows int
	tail       []ColumnVector // positions [sealedRows, rows)
	dead       []bool
	rows       int // total slots, tombstones included
	deleted    int // tombstoned slots
	pkCols     []int
	pk         map[string]int // encoded pk -> row position; nil without a primary key
	indexes    []*secondaryIndex
	keyBuf     []byte // writer-side scratch for rendered keys

	version    atomic.Pointer[TableData]
	deadShared bool // dead's backing array is referenced by the published snapshot
	txnDirty   bool // mutated in the current write transaction (guarded by db.mu)
}

type secondaryIndex struct {
	cols []int
	m    map[string][]int
}

// compactMinDead is the tombstone count below which compaction is
// never attempted; above it, a table compacts at publish time once
// tombstones outnumber live rows.
const compactMinDead = 256

func newTable(s *Schema, def TableDef) (*Table, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	d := def.Clone()
	t := &Table{
		def:    d,
		lay:    newLayout(d),
		schema: s.name,
		db:     s.db,
		logged: s.db.logging && !d.Derived,
		sch:    s,
	}
	t.tail = freshCols(d)
	for _, k := range d.PrimaryKey {
		t.pkCols = append(t.pkCols, t.lay.colIndex[k])
	}
	if len(t.pkCols) > 0 {
		t.pk = make(map[string]int)
	}
	for _, ix := range d.Indexes {
		si := &secondaryIndex{m: make(map[string][]int)}
		for _, k := range ix {
			si.cols = append(si.cols, t.lay.colIndex[k])
		}
		t.indexes = append(t.indexes, si)
	}
	t.publish()
	return t, nil
}

// Def returns a copy of the table definition.
func (t *Table) Def() TableDef { return t.def.Clone() }

// Name returns the table name.
func (t *Table) Name() string { return t.def.Name }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.rows - t.deleted }

// Data returns the last published immutable snapshot of the table.
// It never blocks and needs no lock: scans against the result observe
// the state as of the most recent committed write transaction.
func (t *Table) Data() *TableData { return t.version.Load() }

// publish captures the current vectors as an immutable TableData and
// swaps it in atomically. Called at write-transaction commit (and at
// table creation) while holding the DB write lock.
func (t *Table) publish() {
	if t.deleted > compactMinDead && t.deleted*2 > t.rows {
		t.compact()
	}
	if ht := t.db.hotTailRows; ht > 0 && t.rows-t.sealedRows >= ht {
		t.sealTail()
	}
	td := &TableData{
		lay:    t.lay,
		chunks: t.snapshotChunks(),
		dead:   t.dead,
		rows:   t.rows,
		live:   t.rows - t.deleted,
	}
	t.version.Store(td)
	t.deadShared = true
	mSnapshotPublishes.Inc()
}

// compact rewrites the vectors with live rows only (preserving scan
// order), rebuilds the position maps, and re-seals the result through
// the segment store — so compacting a mostly-dead cold table frees its
// segments without re-inflating the survivors into permanent RAM.
// Published snapshots keep the old chunks, so concurrent readers are
// unaffected.
func (t *Table) compact() {
	mCompactions.Inc()
	newCols := freshCols(t.def)
	live := t.rows - t.deleted
	newDead := make([]bool, live)
	var buf []byte
	newPK := t.pk
	if newPK != nil {
		newPK = make(map[string]int, live)
	}
	for _, ix := range t.indexes {
		ix.m = make(map[string][]int)
	}
	newPos := 0
	t.forEachChunk(func(cols []ColumnVector, base, rows int) bool {
		for lp := 0; lp < rows; lp++ {
			if t.dead[base+lp] {
				continue
			}
			for i := range newCols {
				newCols[i].AppendFrom(&cols[i], lp)
			}
			if newPK != nil {
				buf = appendKeyAt(buf[:0], newCols, t.pkCols, newPos)
				newPK[string(buf)] = newPos
			}
			for _, ix := range t.indexes {
				buf = appendKeyAt(buf[:0], newCols, ix.cols, newPos)
				ix.m[string(buf)] = append(ix.m[string(buf)], newPos)
			}
			newPos++
		}
		return true
	})
	t.dropSealed()
	t.dead = newDead
	t.rows = live
	t.deleted = 0
	t.pk = newPK
	t.deadShared = false
	t.installAll(newCols, live)
}

// appendKeyAt renders the key for the given column positions of row
// pos, producing exactly the bytes encodeKey yields for the same
// values.
func appendKeyAt(b []byte, cols []ColumnVector, idx []int, pos int) []byte {
	for n, ci := range idx {
		if n > 0 {
			b = append(b, 0x1f)
		}
		v := &cols[ci]
		if v.Nulls[pos] {
			b = append(b, 0)
			continue
		}
		switch v.Type {
		case TypeInt:
			b = strconv.AppendInt(b, v.Ints[pos], 10)
		case TypeFloat:
			b = strconv.AppendFloat(b, v.Floats[pos], 'g', -1, 64)
		case TypeString:
			b = append(b, v.Strs[pos]...)
		case TypeBool:
			if v.Bools[pos] {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		case TypeTime:
			b = strconv.AppendInt(b, v.Times[pos].UnixNano(), 10)
		}
	}
	return b
}

// checkArity rejects a positional row of the wrong width.
func (t *Table) checkArity(n int) error {
	if n != len(t.def.Columns) {
		return fmt.Errorf("warehouse: table %s.%s expects %d values, got %d",
			t.schema, t.def.Name, len(t.def.Columns), n)
	}
	return nil
}

// coerceAt coerces one cell to column i's canonical form.
func (t *Table) coerceAt(i int, v any) (any, error) {
	cv, err := coerce(t.def.Columns[i], v)
	if err != nil {
		return nil, fmt.Errorf("warehouse: table %s.%s: %w", t.schema, t.def.Name, err)
	}
	return cv, nil
}

// normalize converts a map-form row into a coerced value slice.
func (t *Table) normalize(row map[string]any) ([]any, error) {
	vals := make([]any, len(t.def.Columns))
	for k := range row {
		if _, ok := t.lay.colIndex[k]; !ok {
			return nil, fmt.Errorf("warehouse: table %s.%s has no column %q", t.schema, t.def.Name, k)
		}
	}
	for i, c := range t.def.Columns {
		v, err := t.coerceAt(i, row[c.Name])
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// normalizeSlice coerces a positional row.
func (t *Table) normalizeSlice(row []any) ([]any, error) {
	if err := t.checkArity(len(row)); err != nil {
		return nil, err
	}
	vals := make([]any, len(row))
	for i := range vals {
		v, err := t.coerceAt(i, row[i])
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// pkBytes renders the primary key of a coerced row into the table's
// reused key buffer: the bytes encodeKey yields for the key cells. The
// result is valid until the next key is rendered; the table must have a
// primary key.
func (t *Table) pkBytes(vals []any) []byte {
	t.keyBuf = appendKeyVals(t.keyBuf[:0], vals, t.pkCols)
	return t.keyBuf
}

// appendRow appends a normalized row to the hot tail and returns its
// global position.
func (t *Table) appendRow(vals []any) int {
	pos := t.rows
	for i := range t.tail {
		t.tail[i].AppendValue(vals[i])
	}
	t.dead = append(t.dead, false)
	t.rows++
	t.markDirty()
	return pos
}

// tombstoneAt marks the row at pos deleted. When the tombstone vector
// is still shared with the published snapshot and pos is visible to
// readers, the vector is copied first (the COW half of the snapshot
// protocol; at most one copy per write transaction).
func (t *Table) tombstoneAt(pos int) {
	if t.deadShared {
		if pub := t.version.Load(); pos < pub.rows {
			t.dead = append([]bool(nil), t.dead...)
			t.deadShared = false
		}
	}
	t.dead[pos] = true
	t.deleted++
	t.markDirty()
}

func (t *Table) markDirty() {
	if !t.txnDirty {
		t.txnDirty = true
		t.db.dirty = append(t.db.dirty, t)
	}
}

// logEvent appends a mutation of this table to the binlog, when the
// table is logged at all.
func (t *Table) logEvent(ev Event) {
	if t.logged {
		ev.Schema, ev.Table = t.schema, t.def.Name
		t.db.binlog.Append(ev)
	}
}

// insertVals inserts a pre-normalized row and logs the mutation.
func (t *Table) insertVals(vals []any) error {
	if t.pk != nil {
		key := t.pkBytes(vals)
		if _, dup := t.pk[string(key)]; dup {
			return fmt.Errorf("warehouse: table %s.%s: duplicate primary key %q", t.schema, t.def.Name, key)
		}
	}
	t.insertNew(vals)
	return nil
}

// insertNew appends a row whose primary key, already rendered in keyBuf
// by the caller's probe, is known to be absent, and logs the insert.
func (t *Table) insertNew(vals []any) {
	if t.pk != nil {
		t.pk[string(t.keyBuf)] = t.rows
	}
	t.addToIndexes(t.appendRow(vals))
	t.logEvent(Event{Kind: EvInsert, Row: vals})
}

// Insert adds a row given as a column-name map.
func (t *Table) Insert(row map[string]any) error {
	vals, err := t.normalize(row)
	if err != nil {
		return err
	}
	return t.insertVals(vals)
}

// InsertRow adds a positional row (values in column order).
func (t *Table) InsertRow(row []any) error {
	vals, err := t.normalizeSlice(row)
	if err != nil {
		return err
	}
	return t.insertVals(vals)
}

// Upsert inserts the row, or replaces the existing row with the same
// primary key. Tables without a primary key reject Upsert.
func (t *Table) Upsert(row map[string]any) error {
	vals, err := t.normalize(row)
	if err != nil {
		return err
	}
	return t.upsertVals(vals)
}

// UpsertRow upserts a positional row (values in column order).
func (t *Table) UpsertRow(row []any) error {
	vals, err := t.normalizeSlice(row)
	if err != nil {
		return err
	}
	return t.upsertVals(vals)
}

func (t *Table) upsertVals(vals []any) error {
	if t.pk == nil {
		return fmt.Errorf("warehouse: table %s.%s has no primary key; cannot upsert", t.schema, t.def.Name)
	}
	pos, exists := t.pk[string(t.pkBytes(vals))]
	if !exists {
		t.insertNew(vals)
		return nil
	}
	t.pk[string(t.keyBuf)] = t.rows // before the index updates reuse keyBuf
	t.removeFromIndexes(pos)
	t.tombstoneAt(pos)
	t.addToIndexes(t.appendRow(vals))
	t.logEvent(Event{Kind: EvUpdate, Row: vals})
	return nil
}

// removeFromIndexes drops the row at pos from every secondary index,
// keyed straight from the column vectors (no boxed copy of the row).
// The removal keeps each list in position order: rows only ever enter
// an index at a position above every other, so the lists stay sorted
// and ScanIndex visits rows in scan order.
func (t *Table) removeFromIndexes(pos int) {
	if len(t.indexes) == 0 {
		return
	}
	cols, lp := t.colsAt(pos)
	for _, ix := range t.indexes {
		t.keyBuf = appendKeyAt(t.keyBuf[:0], cols, ix.cols, lp)
		k := string(t.keyBuf)
		lst := ix.m[k]
		for i, p := range lst {
			if p == pos {
				lst = append(lst[:i], lst[i+1:]...)
				break
			}
		}
		if len(lst) == 0 {
			delete(ix.m, k)
		} else {
			ix.m[k] = lst
		}
	}
}

// addToIndexes enters the row at pos into every secondary index.
func (t *Table) addToIndexes(pos int) {
	if len(t.indexes) > 0 {
		cols, lp := t.colsAt(pos)
		t.indexRow(cols, lp, pos)
	}
}

// indexRow enters global position pos into every secondary index under
// the keys of row lp of cols.
func (t *Table) indexRow(cols []ColumnVector, lp, pos int) {
	for _, ix := range t.indexes {
		t.keyBuf = appendKeyAt(t.keyBuf[:0], cols, ix.cols, lp)
		ix.m[string(t.keyBuf)] = append(ix.m[string(t.keyBuf)], pos)
	}
}

func (t *Table) deleteAt(pos int) {
	if len(t.pkCols) > 0 {
		cols, lp := t.colsAt(pos)
		delete(t.pk, string(appendKeyAt(nil, cols, t.pkCols, lp)))
	}
	t.removeFromIndexes(pos)
	t.tombstoneAt(pos)
	if t.logged {
		// The applier finds the row to delete by the prior values.
		t.logEvent(Event{Kind: EvDelete, Old: t.rowAt(pos).Values()})
	}
}

// DeleteByKey removes the row with the given primary key values.
func (t *Table) DeleteByKey(keyVals ...any) bool {
	key := encodeKey(keyVals)
	pos, ok := t.pk[key]
	if !ok {
		return false
	}
	t.deleteAt(pos)
	return true
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.resetStorage()
	t.logEvent(Event{Kind: EvTruncate})
}

func (t *Table) resetStorage() {
	t.dropSealed()
	t.tail = freshCols(t.def)
	t.dead = nil
	t.rows = 0
	t.deleted = 0
	t.deadShared = false
	if t.pk != nil {
		t.pk = make(map[string]int)
	}
	for _, ix := range t.indexes {
		ix.m = make(map[string][]int)
	}
	t.markDirty()
}

// ReplaceAllColumns atomically replaces the table's entire contents
// with the given columnar payload (a bulk load: re-aggregation
// installs, loose-dump batch loads, backup restores). The payload is
// validated strictly against the table definition, primary-key
// uniqueness included, before anything is mutated; on success a logged
// table logs one EvLoad event carrying the payload in place of per-row
// events. The table adopts cd's vectors — the caller must not modify
// cd afterwards.
func (t *Table) ReplaceAllColumns(cd *ColumnData) error {
	if err := cd.Validate(t.def); err != nil {
		return err
	}
	cols := cd.vectors()
	var newPK map[string]int
	if len(t.pkCols) > 0 {
		newPK = make(map[string]int, cd.Rows)
		var buf []byte
		for pos := 0; pos < cd.Rows; pos++ {
			buf = appendKeyAt(buf[:0], cols, t.pkCols, pos)
			if _, dup := newPK[string(buf)]; dup {
				return fmt.Errorf("warehouse: load for table %s.%s: duplicate primary key %q at row %d",
					t.schema, t.def.Name, string(buf), pos)
			}
			newPK[string(buf)] = pos
		}
	}
	for _, ix := range t.indexes {
		ix.m = make(map[string][]int)
		var buf []byte
		for pos := 0; pos < cd.Rows; pos++ {
			buf = appendKeyAt(buf[:0], cols, ix.cols, pos)
			ix.m[string(buf)] = append(ix.m[string(buf)], pos)
		}
	}
	t.dropSealed()
	t.dead = make([]bool, cd.Rows)
	t.rows = cd.Rows
	t.deleted = 0
	t.deadShared = false
	t.pk = newPK
	t.installAll(cols, cd.Rows)
	t.markDirty()
	t.logEvent(Event{Kind: EvLoad, Cols: cd})
	return nil
}

// payloadCols validates a columnar payload strictly against the table
// definition and returns its vectors (ColumnData.vectors), so keys
// render from it with appendKeyAt.
func (t *Table) payloadCols(cd *ColumnData) ([]ColumnVector, error) {
	if err := cd.Validate(t.def); err != nil {
		return nil, err
	}
	if t.pk == nil {
		return nil, fmt.Errorf("warehouse: table %s.%s has no primary key; cannot match rows by key", t.schema, t.def.Name)
	}
	return cd.vectors(), nil
}

// posOf returns the position the rendered primary key maps to, or -1.
func (t *Table) posOf(key []byte) int {
	if pos, ok := t.pk[string(key)]; ok {
		return pos
	}
	return -1
}

// UpsertColumns upserts every row of a columnar payload by primary key
// in one batch: the result is what UpsertRow of the same rows, in
// payload order, would leave — table contents, scan order, indexes and,
// on a logged table, one INSERT or UPDATE event per row. The payload is
// validated strictly (ColumnData.Validate) and must not repeat a key; a
// refused payload leaves the table as it was. Replaced rows are
// tombstoned through the copy-on-write path and every column is
// appended with one copy, so published snapshots keep reading the old
// cells. cd is copied, not adopted: the caller may reuse it.
//
// fill, when not nil, completes the payload row by row in the same
// pass that matches the keys: it runs once per row r, in payload order,
// after r's key has been matched — replaced is the global position of
// the current row with that key, readable through ChunkAt, or -1 — and
// before anything is tombstoned or appended. It may write row r's
// non-key cells into cd's existing vectors; it must not write the
// table. A fill error refuses the payload like a repeated key does.
func (t *Table) UpsertColumns(cd *ColumnData, fill func(r, replaced int) error) error {
	cols, err := t.payloadCols(cd)
	if err != nil {
		return err
	}
	n, base := cd.Rows, t.rows
	if n == 0 {
		return nil
	}
	// Claim each key for its new position base+r, remembering the
	// position it replaces. A key already claimed by this payload is the
	// one failure left once Validate has passed, a fill error the other;
	// the claims made so far are then handed back, so nothing has
	// changed.
	old := make([]int, n)
	for r := range old {
		t.keyBuf = appendKeyAt(t.keyBuf[:0], cols, t.pkCols, r)
		pos := t.posOf(t.keyBuf)
		if pos >= base {
			dup := string(t.keyBuf)
			t.releaseClaims(cols, old[:r])
			return fmt.Errorf("warehouse: upsert into table %s.%s: duplicate primary key %q at rows %d and %d",
				t.schema, t.def.Name, dup, pos-base, r)
		}
		if fill != nil {
			if err := fill(r, pos); err != nil {
				t.releaseClaims(cols, old[:r])
				return err
			}
		}
		old[r] = pos
		t.pk[string(t.keyBuf)] = base + r
	}
	for r, pos := range old { // index updates in UpsertRow's order: the lists end up in the same order
		if pos >= 0 {
			t.removeFromIndexes(pos)
			t.tombstoneAt(pos)
		}
		t.indexRow(cols, r, base+r)
	}
	for i := range t.tail {
		t.tail[i].AppendColumn(&cols[i])
	}
	t.dead = append(t.dead, make([]bool, n)...)
	t.rows += n
	t.markDirty()
	if t.logged {
		for r, pos := range old {
			kind := EvInsert
			if pos >= 0 {
				kind = EvUpdate
			}
			t.logEvent(Event{Kind: kind, Row: Row{lay: t.lay, cols: cols, pos: r}.Values()})
		}
	}
	return nil
}

// releaseClaims hands back the key claims of a refused UpsertColumns
// payload: old[q] is the position payload row q's key mapped to before
// it was claimed, or -1 when the key was new.
func (t *Table) releaseClaims(cols []ColumnVector, old []int) {
	for q, pos := range old {
		t.keyBuf = appendKeyAt(t.keyBuf[:0], cols, t.pkCols, q)
		if pos < 0 {
			delete(t.pk, string(t.keyBuf))
		} else {
			t.pk[string(t.keyBuf)] = pos
		}
	}
}

// ChunkAt returns typed access to the row at global position pos: the
// chunk holding it — a sealed segment or the hot tail — and the row's
// position within that chunk. The chunk views the writer state, the
// current transaction's changes included, and is valid until the table
// is next written.
func (t *Table) ChunkAt(pos int) (ColChunk, int) {
	cols, lp := t.colsAt(pos)
	base, rows := pos-lp, len(cols[0].Nulls) // every vector the table holds has full validity
	return ColChunk{lay: t.lay, cols: cols, dead: t.dead[base : base+rows], base: base, rows: rows}, lp
}

// GetByKey returns the row with the given primary key values.
func (t *Table) GetByKey(keyVals ...any) (Row, bool) {
	var buf [64]byte // readers share the table: the key renders on the stack, not in keyBuf
	pos, ok := t.pk[string(appendKey(buf[:0], keyVals))]
	if !ok {
		return Row{}, false
	}
	return t.rowAt(pos), true
}

// Scan calls fn for every live row; fn returning false stops the scan.
// Within a write transaction the scan observes the transaction's own
// uncommitted changes (it reads the writer state, not the published
// snapshot); use Data().Scan for the lock-free committed view.
func (t *Table) Scan(fn func(Row) bool) {
	t.forEachChunk(func(cols []ColumnVector, base, rows int) bool {
		for lp := 0; lp < rows; lp++ {
			if t.dead[base+lp] {
				continue
			}
			if !fn(Row{lay: t.lay, cols: cols, pos: lp}) {
				return false
			}
		}
		return true
	})
}

// ScanIndex scans only rows whose indexed columns equal the given
// values, in position order (the order Scan visits them in). Like Scan
// it reads the writer state. The index is chosen by exact column-name
// match; when no such
// index exists ScanIndex falls back to a full scan with an equality
// filter (so callers stay correct even if an index was not declared).
func (t *Table) ScanIndex(cols []string, vals []any, fn func(Row) bool) {
	want := make([]int, len(cols))
	for i, c := range cols {
		want[i] = t.lay.colIndex[c]
	}
	for _, ix := range t.indexes {
		if equalIntSlices(ix.cols, want) {
			coerced := make([]any, len(vals))
			for i, c := range want {
				cv, err := coerce(t.def.Columns[c], vals[i])
				if err != nil {
					return
				}
				coerced[i] = cv
			}
			for _, pos := range ix.m[encodeKey(coerced)] {
				if t.dead[pos] {
					continue
				}
				if !fn(t.rowAt(pos)) {
					return
				}
			}
			return
		}
	}
	t.Scan(func(r Row) bool {
		for i, c := range cols {
			if encodeKeyPart(r.Get(c)) != encodeKeyPart(vals[i]) {
				return true
			}
		}
		return fn(r)
	})
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ColumnIndex returns the position of the named column in the table's
// row layout, or false when the column does not exist. Consumers of
// positional binlog event rows use this instead of hardcoding offsets.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.lay.colIndex[name]
	return i, ok
}

// Columns returns the ordered column names.
func (t *Table) Columns() []string {
	names := make([]string, len(t.def.Columns))
	for i, c := range t.def.Columns {
		names[i] = c.Name
	}
	return names
}
