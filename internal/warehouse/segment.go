package warehouse

import "xdmodfed/internal/warehouse/store"

// Tiered table storage. A table's rows live in two places: a list of
// immutable sealed chunks held by the DB's segment backend (heap
// segments for the memory backend, mmap-backed files for the disk
// backend) followed by the hot tail — plain append-only vectors that
// every write lands in. Global row positions are stable across
// sealing: position p is sealed chunk space for p < sealedRows and
// tail-local p-sealedRows beyond that, so the key indexes, tombstone
// vector, and published snapshots all keep speaking global positions
// unchanged.

// sealedChunk is one sealed segment of a table. Its columns are the
// segment view's own vectors: a memory segment hands back the very
// vectors that were sealed, dictionaries shared with the tail; a disk
// segment's numeric vectors alias the file mapping (kept mapped for as
// long as any caller references the view) and its strings (interned
// into dictionaries of the view's own) and times are heap copies.
type sealedChunk struct {
	h    store.Handle
	rows int
}

// columns returns the chunk's column vectors, materializing the
// segment if it is cold. Safe for concurrent use by lock-free readers.
// A resident segment is read through Peek, so a scan does not count as
// a use for eviction on every row; callers keep the returned vectors
// (and thus the view) alive for as long as they reference them, even
// across an eviction.
func (sc *sealedChunk) columns() []ColumnVector {
	if sd := sc.h.Peek(); sd != nil {
		return sd.Cols
	}
	return sc.h.View().Cols
}

// freshCols allocates empty writer vectors for a table definition.
func freshCols(def TableDef) []ColumnVector {
	cols := make([]ColumnVector, len(def.Columns))
	for i, c := range def.Columns {
		cols[i].Type = c.Type
	}
	return cols
}

// nextTail returns empty vectors to follow cols as the hot tail: the
// dictionaries carry over, so the table's index still describes them.
func nextTail(cols []ColumnVector) []ColumnVector {
	next := make([]ColumnVector, len(cols))
	for i := range cols {
		next[i] = ColumnVector{Type: cols[i].Type, Dict: cols[i].Dict}
	}
	return next
}

// sealTail seals the hot tail as one segment and starts a fresh tail
// that goes on appending to the same dictionaries: the segment keeps
// the dictionary header it was sealed with, and the tail's later
// entries land beyond it.
// On failure the rows simply stay in RAM: sealing is an optimization,
// never a correctness requirement, so a full disk degrades residency
// instead of losing writes.
func (t *Table) sealTail() {
	rows := t.rows - t.sealedRows
	if rows <= 0 {
		return
	}
	h, err := t.db.storage.Seal(t.schema, t.def.Name, store.NewSegmentData(rows, t.tail))
	if err != nil {
		store.NoteSealError()
		logw.Warn("tail seal failed; rows stay in the RAM tail",
			"table", t.schema+"."+t.def.Name, "rows", rows, "err", err)
		return
	}
	t.sealed = append(t.sealed, &sealedChunk{h: h, rows: rows})
	t.sealedRows += rows
	t.tail = nextTail(t.tail)
}

// installAll replaces the table's storage with rows-long vectors,
// sealing them as a single segment (compaction results and bulk loads
// go straight to the backend so a cold table does not re-inflate into
// RAM). ixs indexes the vectors' dictionaries, which the tail goes on
// appending to. Callers have already dropped the old sealed chunks and
// reset positions; on seal failure the vectors become the RAM tail.
func (t *Table) installAll(cols []ColumnVector, ixs []store.Index, rows int) {
	t.sealed = nil
	t.sealedRows = 0
	t.index = ixs
	if rows == 0 {
		t.tail = nextTail(cols)
		return
	}
	h, err := t.db.storage.Seal(t.schema, t.def.Name, store.NewSegmentData(rows, cols))
	if err != nil {
		store.NoteSealError()
		logw.Warn("bulk seal failed; table stays in the RAM tail",
			"table", t.schema+"."+t.def.Name, "rows", rows, "err", err)
		t.tail = cols
		return
	}
	t.sealed = []*sealedChunk{{h: h, rows: rows}}
	t.sealedRows = rows
	t.tail = nextTail(cols)
}

// dropSealed releases every sealed chunk back to the backend.
func (t *Table) dropSealed() {
	for _, sc := range t.sealed {
		t.db.storage.Drop(sc.h)
	}
	t.sealed = nil
	t.sealedRows = 0
}

// colsAt resolves a global row position to its chunk's column vectors
// and the chunk-local position.
func (t *Table) colsAt(pos int) ([]ColumnVector, int) {
	cols, lp, _ := t.cellsAt(pos)
	return cols, lp
}

// cellsAt is colsAt that also reports whether the chunk's string codes
// are the table's own: they are in the tail and in a memory segment,
// which shares the tail's dictionary (a heap-backed view is the very
// vectors sealed), and are not in a disk segment's view.
func (t *Table) cellsAt(pos int) (cols []ColumnVector, lp int, own bool) {
	if pos >= t.sealedRows {
		return t.tail, pos - t.sealedRows, true
	}
	base := 0
	for _, sc := range t.sealed {
		if pos < base+sc.rows {
			return sc.columns(), pos - base, sc.h.HeapBacked()
		}
		base += sc.rows
	}
	panic("warehouse: row position beyond sealed chunks")
}

// rowAt wraps the row at global position pos.
func (t *Table) rowAt(pos int) Row {
	cols, lp := t.colsAt(pos)
	return Row{lay: t.lay, cols: cols, pos: lp}
}

// forEachChunk walks the table's storage in global position order:
// every sealed chunk, then the hot tail. fn receives the chunk's
// columns, its global base position, and its row count; returning
// false stops the walk.
func (t *Table) forEachChunk(fn func(cols []ColumnVector, base, rows int) bool) {
	base := 0
	for _, sc := range t.sealed {
		if !fn(sc.columns(), base, sc.rows) {
			return
		}
		base += sc.rows
	}
	if t.rows > t.sealedRows {
		fn(t.tail, t.sealedRows, t.rows-t.sealedRows)
	}
}

// snapshotChunks captures the chunk list for a snapshot publish. Tail
// slice headers are copied so later appends to the tail never move a
// published chunk's view.
func (t *Table) snapshotChunks() []tdChunk {
	tailRows := t.rows - t.sealedRows
	chunks := make([]tdChunk, 0, len(t.sealed)+1)
	base := 0
	for _, sc := range t.sealed {
		chunks = append(chunks, tdChunk{sc: sc, base: base, rows: sc.rows})
		base += sc.rows
	}
	if tailRows > 0 {
		chunks = append(chunks, tdChunk{cols: append([]ColumnVector(nil), t.tail...), base: base, rows: tailRows})
	}
	return chunks
}
