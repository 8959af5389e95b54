package warehouse

import (
	"sync/atomic"
	"weak"

	"xdmodfed/internal/warehouse/store"
)

// Tiered table storage. A table's rows live in two places: a list of
// immutable sealed chunks held by the DB's segment backend (heap
// segments for the memory backend, mmap-backed files for the disk
// backend) followed by the hot tail — plain append-only vectors that
// every write lands in. Global row positions are stable across
// sealing: position p is sealed chunk space for p < sealedRows and
// tail-local p-sealedRows beyond that, so the primary-key and
// secondary-index maps, tombstone vector, and published snapshots all
// keep speaking global positions unchanged.

// sealedChunk binds one sealed segment to its cached colVec view. The
// cache holds the wrappers only WEAKLY: the expensive materialized
// data (*store.SegmentData) is cached strongly by the backend handle,
// subject to its max_resident_bytes LRU, and the cache here must not
// keep evicted views alive behind the backend's back — otherwise
// every chunk a full-table scan ever touched would stay pinned on the
// heap and the resident budget would bound nothing. After an eviction
// the next GC collects the wrappers (and with them the view), and the
// next access re-materializes; while the view is resident, losing the
// wrappers to a GC merely costs rebuilding a few slice headers.
type sealedChunk struct {
	h     store.Handle
	rows  int
	def   TableDef // shared with the table; used to type the columns
	cache atomic.Pointer[weak.Pointer[chunkCols]]
}

type chunkCols struct {
	sd   *store.SegmentData
	cols []colVec
}

func newSealedChunk(h store.Handle, rows int, def TableDef) *sealedChunk {
	return &sealedChunk{h: h, rows: rows, def: def}
}

// columns returns the chunk's column vectors, materializing the
// segment if it is cold. Safe for concurrent use by lock-free readers.
// Callers keep the returned vectors (and thus the underlying view)
// alive for as long as they reference them, even across an eviction.
func (sc *sealedChunk) columns() []colVec {
	if wp := sc.cache.Load(); wp != nil {
		if c := wp.Value(); c != nil && c.sd == sc.h.Peek() {
			return c.cols
		}
	}
	sd := sc.h.View()
	c := &chunkCols{sd: sd, cols: colsFromSegment(sd, sc.def)}
	wp := weak.Make(c)
	sc.cache.Store(&wp)
	return c.cols
}

// segmentData wraps rows-long column vectors as a seal payload. The
// slices are referenced, not copied; after a successful seal the
// caller must stop appending to them (published snapshots may keep
// reading them, which is fine — they are immutable below rows).
func segmentData(cols []colVec, rows int) *store.SegmentData {
	out := make([]store.Column, len(cols))
	for i := range cols {
		v := &cols[i]
		out[i] = store.Column{
			// ColumnType and store.Kind enumerate the five types in the
			// same order from 1.
			Kind: store.Kind(v.typ),
			Ints: v.ints, Floats: v.floats, Strs: v.strs,
			Bools: v.bools, Times: v.times, Nulls: v.nulls,
		}
	}
	return store.NewSegmentData(rows, out)
}

// colsFromSegment converts a segment view back into column vectors.
// For memory segments this restores the exact slices that were sealed;
// for disk segments the numeric vectors alias the file mapping (kept
// alive by sd's pin for as long as any caller references the vectors)
// and strings/times are the view's heap copies.
func colsFromSegment(sd *store.SegmentData, def TableDef) []colVec {
	cols := make([]colVec, len(sd.Cols))
	for i := range sd.Cols {
		c := &sd.Cols[i]
		cols[i] = colVec{
			typ: ColumnType(c.Kind), nullable: def.Columns[i].Nullable,
			ints: c.Ints, floats: c.Floats, strs: c.Strs,
			bools: c.Bools, times: c.Times, nulls: c.Nulls,
		}
	}
	return cols
}

// freshCols allocates empty writer vectors for a table definition.
func freshCols(def TableDef) []colVec {
	cols := make([]colVec, len(def.Columns))
	for i, c := range def.Columns {
		cols[i] = newColVec(c)
	}
	return cols
}

// sealTail seals the hot tail as one segment and starts a fresh tail.
// On failure the rows simply stay in RAM: sealing is an optimization,
// never a correctness requirement, so a full disk degrades residency
// instead of losing writes.
func (t *Table) sealTail() {
	rows := t.rows - t.sealedRows
	if rows <= 0 {
		return
	}
	h, err := t.db.storage.Seal(t.schema, t.def.Name, segmentData(t.tail, rows))
	if err != nil {
		store.NoteSealError()
		logw.Warn("tail seal failed; rows stay in the RAM tail",
			"table", t.schema+"."+t.def.Name, "rows", rows, "err", err)
		return
	}
	t.sealed = append(t.sealed, newSealedChunk(h, rows, t.def))
	t.sealedRows += rows
	t.tail = freshCols(t.def)
}

// installAll replaces the table's storage with rows-long vectors,
// sealing them as a single segment (compaction results and bulk loads
// go straight to the backend so a cold table does not re-inflate into
// RAM). Callers have already dropped the old sealed chunks and reset
// positions; on seal failure the vectors become the RAM tail.
func (t *Table) installAll(cols []colVec, rows int) {
	t.sealed = nil
	t.sealedRows = 0
	if rows == 0 {
		t.tail = freshCols(t.def)
		return
	}
	h, err := t.db.storage.Seal(t.schema, t.def.Name, segmentData(cols, rows))
	if err != nil {
		store.NoteSealError()
		logw.Warn("bulk seal failed; table stays in the RAM tail",
			"table", t.schema+"."+t.def.Name, "rows", rows, "err", err)
		t.tail = cols
		return
	}
	t.sealed = []*sealedChunk{newSealedChunk(h, rows, t.def)}
	t.sealedRows = rows
	t.tail = freshCols(t.def)
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
func (t *Table) colsAt(pos int) ([]colVec, int) {
	if pos >= t.sealedRows {
		return t.tail, pos - t.sealedRows
	}
	base := 0
	for _, sc := range t.sealed {
		if pos < base+sc.rows {
			return sc.columns(), pos - base
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
func (t *Table) forEachChunk(fn func(cols []colVec, base, rows int) bool) {
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
		chunks = append(chunks, tdChunk{cols: append([]colVec(nil), t.tail...), base: base, rows: tailRows})
	}
	return chunks
}
