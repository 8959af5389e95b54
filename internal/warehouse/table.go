package warehouse

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"

	"xdmodfed/internal/warehouse/store"
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
	return v.Dict[v.Codes[r.pos]]
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
// vectors, tombstones, the primary-key index) is
// synchronized by the owning DB: all mutating methods and the
// read methods below must be called while holding the DB lock, which
// the Schema/DB wrappers do. Data() is the exception — it returns the
// last published immutable snapshot and may be called from anywhere
// without locking.
//
// A table is one set of column vectors, rows [0, rows), plus a
// tombstone vector of the same length. Vectors are append-only: an
// update or upsert tombstones the old position and appends the
// replacement, so a published snapshot's cells are never overwritten.
// The tombstone vector is the only state shared with snapshots that a
// writer must touch below the published boundary, and it is copied on
// first such write per transaction. Compaction, a bulk load and a
// truncate replace the vectors outright.
type Table struct {
	def    TableDef
	lay    *layout
	schema string
	db     *DB
	// logged is "will anything ever read a log of this table?", fixed
	// at creation: the DB keeps a binlog (Options.NoBinlog) and the
	// table is not derived (TableDef.Derived). Every logging site
	// checks it, or recording, before it builds an event payload.
	logged  bool
	sch     *Schema        // owning schema, whose epoch the table's commits bump
	cols    []ColumnVector // the table's vectors, positions [0, rows)
	index   []store.Index  // by column: the index of a string column's dictionary
	dead    []bool
	rows    int       // total slots, tombstones included
	deleted int       // tombstoned slots
	pk      *keyIndex // the primary key's index; nil without a primary key
	seed    maphash.Seed

	version    atomic.Pointer[TableData]
	deadShared bool    // dead's backing array is referenced by the published snapshot
	txnDirty   bool    // mutated in the current write transaction (guarded by db.mu)
	chg        *Change // what the current recording transaction did to the table (guarded by db.mu)
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
		seed:   maphash.MakeSeed(),
	}
	t.cols, t.index = freshCols(d), make([]store.Index, len(d.Columns))
	if len(d.PrimaryKey) > 0 {
		idx := make([]int, len(d.PrimaryKey))
		for n, k := range d.PrimaryKey {
			idx[n] = t.lay.colIndex[k]
		}
		t.pk = newKeyIndex(idx, 0)
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
// swaps it in atomically, compacting the table first once tombstones
// outnumber live rows. It returns the vectors as they stood before any
// compaction, as an immutable view: the published one when the table
// did not compact. Called at write-transaction commit (and at table
// creation) while holding the DB write lock.
func (t *Table) publish() *TableData {
	before := t.snapshot()
	td := before
	if t.deleted > compactMinDead && t.deleted*2 > t.rows {
		t.compact()
		td = t.snapshot()
	}
	t.version.Store(td)
	t.deadShared = true
	mSnapshotPublishes.Inc()
	return before
}

// snapshot captures the current vectors as an immutable TableData: the
// cells below rows never change, and the tombstones are copied before
// a later write changes one the capture holds (tombstoneAt), once the
// caller has set deadShared.
func (t *Table) snapshot() *TableData {
	return &TableData{
		lay:  t.lay,
		cols: slices.Clone(t.cols), // later appends never move a captured header
		dead: t.dead,
		rows: t.rows,
		live: t.rows - t.deleted,
	}
}

// compact rewrites the vectors with live rows only (preserving scan
// order) into fresh dictionaries that hold only live values, and
// rebuilds the key index. Published snapshots keep the old vectors,
// so concurrent readers are unaffected.
func (t *Table) compact() {
	mCompactions.Inc()
	newCols, newIx := freshCols(t.def), make([]store.Index, len(t.def.Columns))
	live := t.rows - t.deleted
	for pos := 0; pos < t.rows; pos++ {
		if t.dead[pos] {
			continue
		}
		for i := range newCols {
			newCols[i].AppendFrom(&t.cols[i], pos, &newIx[i])
		}
	}
	pk, _ := t.buildPK(newCols, live, false) // live keys are distinct
	t.install(newCols, newIx, live)
	t.pk = pk
}

// install makes rows-long vectors, whose dictionaries ixs indexes, the
// table's whole contents, with no tombstone.
func (t *Table) install(cols []ColumnVector, ixs []store.Index, rows int) {
	t.cols, t.index = cols, ixs
	t.dead = make([]bool, rows)
	t.rows = rows
	t.deleted = 0
	t.deadShared = false
}

// freshCols allocates empty vectors for a table definition.
func freshCols(def TableDef) []ColumnVector {
	cols := make([]ColumnVector, len(def.Columns))
	for i, c := range def.Columns {
		cols[i].Type = c.Type
	}
	return cols
}

// rowAt wraps the row at position pos.
func (t *Table) rowAt(pos int) Row { return Row{lay: t.lay, cols: t.cols, pos: pos} }

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

// appendRow appends a normalized row and returns its position.
func (t *Table) appendRow(vals []any) int {
	pos := t.rows
	for i := range t.cols {
		t.cols[i].AppendValue(vals[i], &t.index[i])
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

// logRow notes a row mutation of this table by position, boxing
// nothing: in the binlog when the table is logged (DB.log; commit codes
// the row from the vectors), and in the running transaction's record
// (Change) when it keeps one. pos is the row an INSERT or UPDATE wrote,
// or the row a DELETE removed; replaced is the stored row an UPDATE
// replaced, or -1.
func (t *Table) logRow(kind EventKind, pos, replaced int) {
	if t.logged {
		t.db.log(loggedEvent{kind: kind, tab: t, cols: t.cols, pos: pos})
	}
	if !t.recording() {
		return
	}
	c := t.change()
	if c.Whole {
		return
	}
	if kind == EvDelete {
		c.Replaced = append(c.Replaced, pos)
		return
	}
	c.Inserted = append(c.Inserted, pos)
	if replaced >= 0 {
		c.Replaced = append(c.Replaced, replaced)
	}
}

// logEvent notes a mutation of this table that carries no row: its
// creation, in the binlog only, and a TRUNCATE or LOAD, which the record
// marks as a change of the whole table, dropping the rows it named.
func (t *Table) logEvent(ev Event) {
	if t.logged {
		ev.Schema, ev.Table = t.schema, t.def.Name
		t.db.logEvent(ev)
	}
	if t.recording() && ev.Kind != EvCreateTable {
		*t.change() = Change{Whole: true}
	}
}

// change returns the running transaction's change to the table.
func (t *Table) change() *Change {
	if t.chg == nil {
		t.chg = &Change{}
	}
	return t.chg
}

// recording reports whether the running transaction keeps a record of
// this table: it is a Write (or an Apply inside one) and the table is
// not derived.
func (t *Table) recording() bool { return t.db.recording && !t.def.Derived }

// insertVals inserts a pre-normalized row and logs the mutation.
func (t *Table) insertVals(vals []any) error {
	if t.pk != nil {
		if pos, _, _ := t.rowPos(vals); pos >= 0 {
			return fmt.Errorf("warehouse: table %s.%s: duplicate primary key %s", t.schema, t.def.Name, keyText(vals, t.pk.cols))
		}
	}
	t.insertNew(vals)
	return nil
}

// rowPos looks up the primary key of a coerced row: the position of the
// stored row holding it and its slot (keyIndex.find), or -1 and -1 when
// no stored row can hold it. The table must have a primary key.
func (t *Table) rowPos(vals []any) (pos, slot int, h uint32) {
	var buf [keyCellsOnStack]keyCell
	cells, ok := t.rowKey(buf[:0], t.pk.cols, vals)
	if !ok {
		return -1, -1, 0
	}
	return t.lookup(cells)
}

// insertNew appends a row whose primary key is known to be absent,
// enters it in the key index and logs the insert.
func (t *Table) insertNew(vals []any) {
	pos := t.appendRow(vals)
	if t.pk != nil {
		t.enter(pos)
	}
	t.logRow(EvInsert, pos, -1)
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
// primary key. A row equal to the stored one (sameCells) leaves the table
// as it is: nothing is written, logged or recorded. Tables without a
// primary key reject Upsert.
func (t *Table) Upsert(row map[string]any) error {
	vals, err := t.normalize(row)
	if err != nil {
		return err
	}
	return t.upsertVals(vals, false)
}

// UpsertRow upserts a positional row (values in column order).
func (t *Table) UpsertRow(row []any) error {
	vals, err := t.normalizeSlice(row)
	if err != nil {
		return err
	}
	return t.upsertVals(vals, false)
}

// upsertVals upserts a pre-normalized row. An applied UPDATE (verbatim)
// writes even a row equal to the stored one, as the log it replays
// says: WAL replay must log each record again to keep the WAL's LSNs.
func (t *Table) upsertVals(vals []any, verbatim bool) error {
	if t.pk == nil {
		return fmt.Errorf("warehouse: table %s.%s has no primary key; cannot upsert", t.schema, t.def.Name)
	}
	pos, slot, h := t.rowPos(vals)
	if pos < 0 {
		t.insertNew(vals)
		return nil
	}
	if !verbatim && sameCells(t.cols, pos, vals) {
		return nil
	}
	t.pk.set(slot, h, t.rows)
	t.tombstoneAt(pos)
	next := t.appendRow(vals)
	t.logRow(EvUpdate, next, pos)
	return nil
}

func (t *Table) deleteAt(pos int) {
	if t.pk != nil {
		t.unenter(pos)
	}
	t.tombstoneAt(pos)
	t.logRow(EvDelete, pos, -1) // the applier finds the row to delete by its values
}

// DeleteByKey removes the row with the given primary key values (see
// GetByKey).
func (t *Table) DeleteByKey(keyVals ...any) bool {
	pos := t.keyPos(keyVals)
	if pos < 0 {
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
	t.install(freshCols(t.def), make([]store.Index, len(t.def.Columns)), 0)
	if t.pk != nil {
		t.pk = newKeyIndex(t.pk.cols, 0)
	}
	t.markDirty()
}

// ReplaceAllColumns atomically replaces the table's entire contents
// with the given columnar payload (a bulk load: re-aggregation
// installs, loose-dump batch loads, backup restores). The payload is
// validated strictly against the table definition, primary-key
// uniqueness included, before anything is mutated; on success a logged
// table logs one EvLoad event carrying the payload in place of per-row
// events. The table adopts cd's vectors and dictionaries — the caller
// must not modify cd afterwards — each clipped (ColumnData.vectors), so
// that the table's own appends reallocate them and never write where cd,
// the logged event or another table adopting cd reads; a dictionary
// that holds a value twice is refused.
func (t *Table) ReplaceAllColumns(cd *ColumnData) error {
	if err := cd.Validate(t.def); err != nil {
		return err
	}
	cols := cd.vectors()
	ixs := make([]store.Index, len(cols))
	for i := range cols {
		if cols[i].Type != TypeString {
			continue
		}
		var err error
		if ixs[i], err = store.NewIndex(cols[i].Dict); err != nil {
			return fmt.Errorf("warehouse: load for table %s.%s column %q: %w", t.schema, t.def.Name, t.def.Columns[i].Name, err)
		}
	}
	pk, err := t.buildPK(cols, cd.Rows, true)
	if err != nil {
		return fmt.Errorf("warehouse: load for table %s.%s: %w", t.schema, t.def.Name, err)
	}
	t.install(cols, ixs, cd.Rows)
	t.pk = pk
	t.markDirty()
	t.logEvent(Event{Kind: EvLoad, Cols: cd})
	return nil
}

// payloadCols validates a columnar payload strictly against the table
// definition and returns its vectors (ColumnData.vectors), whose key
// cells the index reads through keyCells.
func (t *Table) payloadCols(cd *ColumnData) ([]ColumnVector, error) {
	if err := cd.Validate(t.def); err != nil {
		return nil, err
	}
	if t.pk == nil {
		return nil, fmt.Errorf("warehouse: table %s.%s has no primary key; cannot match rows by key", t.schema, t.def.Name)
	}
	return cd.vectors(), nil
}

// UpsertColumns upserts every row of a columnar payload by primary key
// in one batch: the result is what UpsertRow of the same rows, in
// payload order, would leave — table contents, scan order, key index, on
// a logged table one INSERT or UPDATE event per row, and the record —
// except that a row equal to the stored one is rewritten, where
// UpsertRow leaves it alone. The payload is validated strictly
// (ColumnData.Validate) and must not repeat a key; a refused payload
// leaves the table as it was. Replaced rows are tombstoned through the
// copy-on-write path and every column is appended with one copy
// (appendPayload), so published snapshots keep reading the old cells.
// cd is copied, not adopted: the caller may reuse it.
//
// fill, when not nil, completes the payload row by row in the same
// pass that matches the keys: it runs once per row r, in payload order,
// after r's key has been matched — replaced is the position of
// the current row with that key, readable through View, or -1 — and
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
	cm := t.keyCodes(cols)
	// Claim each key for its new position base+r, remembering the
	// position it replaces. A key already claimed by this payload is the
	// one failure left once Validate has passed, a fill error the other;
	// the claims made so far are then handed back, so nothing has
	// changed.
	old := make([]int, n)
	for r := range old {
		pos, slot, h := t.probeRow(cols, r, cm)
		if pos >= base {
			t.releaseClaims(cols, cm, old[:r])
			return fmt.Errorf("warehouse: upsert into table %s.%s: duplicate primary key %s at rows %d and %d",
				t.schema, t.def.Name, keyText(Row{lay: t.lay, cols: cols, pos: r}.Values(), t.pk.cols), pos-base, r)
		}
		if fill != nil {
			if err := fill(r, pos); err != nil {
				t.releaseClaims(cols, cm, old[:r])
				return err
			}
		}
		old[r] = pos
		t.pk.set(slot, h, base+r)
	}
	for _, pos := range old {
		if pos >= 0 {
			t.tombstoneAt(pos)
		}
	}
	t.appendPayload(cols, n, old)
	return nil
}

// skippedRow marks, in a batch's claims, a row InsertColumns skips.
const skippedRow = -2

// InsertColumns inserts, in payload order, the rows of a columnar
// payload whose primary key is new, and returns how many rows it
// skipped: those whose key the table, or an earlier row of the payload,
// already holds. What it leaves is what InsertRow of the inserted rows
// would leave — table contents, scan order, key index, on a logged table
// one INSERT event per row, and the record, down to the vectors'
// capacity — for one key probe per row. The payload is validated
// strictly (ColumnData.Validate); a refused payload leaves the table
// as it was. cd is copied, not adopted.
func (t *Table) InsertColumns(cd *ColumnData) (skipped int, err error) {
	cols, err := t.payloadCols(cd)
	if err != nil || cd.Rows == 0 {
		return 0, err
	}
	n, base := cd.Rows, t.rows
	cm := t.keyCodes(cols)
	claims := make([]int, n) // per row: -1 (its key is new, claimed) or skippedRow
	for r := range claims {
		pos, slot, h := t.probeRow(cols, r, cm)
		if pos >= 0 {
			claims[r] = skippedRow
			skipped++
			continue
		}
		claims[r] = -1
		t.pk.set(slot, h, base+r)
	}
	if skipped == 0 {
		for i := range t.cols { // the capacity n InsertRows would leave
			t.cols[i].GrowAsAppends(n)
		}
		t.appendPayload(cols, n, nil)
		return 0, nil
	}
	// The kept rows' keys were claimed where the whole payload would put
	// them, and the key codes translated as if every row were appended:
	// hand the claims back and insert the kept rows on their own, whose
	// keys are all new.
	t.releaseClaims(cols, cm, claims)
	if skipped == n {
		return n, nil
	}
	skip := make([]bool, n) // the skipped rows, as a view's tombstones
	for r, c := range claims {
		skip[r] = c == skippedRow
	}
	_, err = t.InsertColumns((&TableData{lay: t.lay, cols: cols, dead: skip, rows: n, live: n - skipped}).ColumnData())
	return skipped, err
}

// keyCodes translates the string codes of a payload's key columns into
// the codes the table's dictionary has, or appendPayload will give,
// for their values: each distinct payload code once, interning nothing.
func (t *Table) keyCodes(cols []ColumnVector) codeMap {
	cm := codeMap{to: make([][]uint32, len(cols))}
	for _, ci := range t.pk.cols {
		if c := &cols[ci]; c.Type == TypeString && cm.to[ci] == nil {
			cm.to[ci] = make([]uint32, len(c.Dict))
			t.cols[ci].Translate(c, &t.index[ci], cm.to[ci])
		}
	}
	return cm
}

// probeRow finds payload row r's primary key: the position that holds
// it — a stored row, or t.rows+q for an earlier payload row q that
// claimed it — or -1 and the empty slot where it would go, with room
// made for one more key. Room is made only for keys that are new, so an
// index re-upserted in full does not grow.
func (t *Table) probeRow(cols []ColumnVector, r int, cm codeMap) (pos, slot int, h uint32) {
	base := t.rows
	var buf [keyCellsOnStack]keyCell
	cells := t.keyCells(buf[:0], cols, r, t.pk.cols, cm)
	h = t.hashKey(cells)
	same := func(p int) bool {
		if p >= base { // claimed by an earlier row of this payload
			return t.rowHolds(cols, p-base, cm, t.pk.cols, cells)
		}
		return t.holds(p, t.pk.cols, cells)
	}
	pos, slot = t.pk.find(h, same)
	if pos < 0 && t.pk.reserve(1) {
		pos, slot = t.pk.find(h, same)
	}
	return pos, slot, h
}

// appendPayload appends every row of a payload whose keys are claimed
// at positions t.rows.. (a string column's codes translated into the
// table's dictionary once per distinct code) and logs each: an UPDATE
// of the stored row old[r] when old (nil: none) names one, an INSERT
// otherwise.
func (t *Table) appendPayload(cols []ColumnVector, n int, old []int) {
	base := t.rows
	for i := range t.cols {
		t.cols[i].AppendColumn(&cols[i], &t.index[i])
	}
	t.dead = append(t.dead, make([]bool, n)...)
	t.rows += n
	t.markDirty()
	for r := range n {
		if old != nil && old[r] >= 0 {
			t.logRow(EvUpdate, base+r, old[r])
		} else {
			t.logRow(EvInsert, base+r, -1)
		}
	}
}

// releaseClaims hands back the key claims of a batch payload: payload
// row q's key, read through cm, was claimed for position t.rows+q, and
// old[q] is the position it held before, -1 when the key was new, or
// skippedRow when row q claimed nothing.
func (t *Table) releaseClaims(cols []ColumnVector, cm codeMap, old []int) {
	var buf [keyCellsOnStack]keyCell
	for q, pos := range old {
		if pos == skippedRow {
			continue
		}
		h := t.hashKey(t.keyCells(buf[:0], cols, q, t.pk.cols, cm))
		t.pk.remove(h, t.rows+q)
		if pos >= 0 {
			t.pk.add(h, pos)
		}
	}
}

// View returns a writer view of the table: typed access to the writer
// state, the current transaction's changes included, by table position.
// It is valid only until the table's next write; Data is the published
// snapshot.
func (t *Table) View() *TableData {
	return &TableData{lay: t.lay, cols: t.cols, dead: t.dead, rows: t.rows, live: t.rows - t.deleted}
}

// GetByKey returns the row with the given primary key values, one per
// key column in key order, each coerced to its column as an insert
// would coerce it. A value that does not coerce matches no row. Keys
// are equal when their typed cells are (see keyindex.go): floats by
// bits, and NULL only to NULL. It writes nothing, so readers may call
// it concurrently.
func (t *Table) GetByKey(keyVals ...any) (Row, bool) {
	pos := t.keyPos(keyVals)
	if pos < 0 {
		return Row{}, false
	}
	return t.rowAt(pos), true
}

// keyPos returns the position of the stored row whose primary key
// holds keyVals (GetByKey), or -1.
func (t *Table) keyPos(keyVals []any) int {
	if t.pk == nil {
		return -1
	}
	var buf [keyCellsOnStack]keyCell // on the stack: readers share the table
	cells, ok := t.probeKey(buf[:0], t.pk.cols, keyVals)
	if !ok {
		return -1
	}
	pos, _, _ := t.lookup(cells)
	return pos
}

// Scan calls fn for every live row; fn returning false stops the scan.
// Within a write transaction the scan observes the transaction's own
// uncommitted changes (it reads the writer state, not the published
// snapshot); the TableData accessors of Data() read the lock-free
// committed view.
func (t *Table) Scan(fn func(Row) bool) {
	for pos := 0; pos < t.rows; pos++ {
		if !t.dead[pos] && !fn(t.rowAt(pos)) {
			return
		}
	}
}

// Columns returns the ordered column names.
func (t *Table) Columns() []string {
	names := make([]string, len(t.def.Columns))
	for i, c := range t.def.Columns {
		names[i] = c.Name
	}
	return names
}
