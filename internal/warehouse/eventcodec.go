package warehouse

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// Binary event codec: the one serialisation of Event, used for WAL
// record payloads and for the events of a replication frame. A buffer
// is
//
//	uvarint(event count) | event...
//
// and an event is
//
//	uvarint(kind) | flags byte
//	| schema string, table string     unless evSameTable
//	| uvarint(LSN)                    unless evNextLSN
//	| varint(seconds delta) | varint(nanoseconds delta)   commit time
//	| row                             if evHasRow
//	| old row                         if evHasOld
//	| def                             if evHasDef
//	| cols                            if evHasCols
//
// where a string is uvarint(length) | bytes, a varint is zig-zag
// encoded, a flag is one byte 0 or 1, and a row is uvarint(width)
// followed by one tag byte per cell and the cell's payload (see the
// cell* constants). A CREATE_TABLE's definition is
//
//	def    = string(name) | uvarint(n) | column{n}
//	         | uvarint(k) | string{k}              primary key
//	         | uvarint(m) | (uvarint(w) | string{w}){m}   legacy index list
//	         | flag(derived)
//	column = string(name) | type byte | flag(nullable)
//
// where the encoder writes m = 0: older builds coded a table's
// secondary indexes there, and the decoder reads such a list and drops
// it. A LOAD's table contents are coded column-major:
//
//	cols   = uvarint(rows) | uvarint(n) | vector{n}
//	vector = string(name) | type byte | flag(has validity vector) | cell{rows}
//
// with the row codec's cell tags, restricted to the column's type (and
// to cellNull where the vector has validity); there cellSame repeats
// the previous cell of the same column, and cellStringRef indexes the
// strings spelled earlier in the same vector.
//
// Every event is coded against what preceded it in the same buffer,
// starting from the zero state (no schema, LSN 0, the Unix epoch, no
// rows, no strings): an event of the previous event's table drops both
// names, the next LSN drops the number, the commit time is a delta, a
// cell equal to the same column of the previous row is one cellSame
// byte, and any other string cell its column (its position in the row,
// whatever the row's width) has already spelled is cellStringRef and
// the string's index among the strings that column has spelled as
// cellString, counted from 0. The decoder answers both by sharing the
// value it decoded before instead of allocating one; it accepts a
// string spelled twice, and counts both spellings. The previous row is
// the last one coded since the buffer last named a table, and the
// spelled strings are those coded since then, in rows and old rows
// alike: a change of table forgets both. A buffer is therefore
// self-contained, and its events are not separable.
//
// A snapshot file is the same stream (see snapshot.go), so every count
// the decoder reads — events, cells, columns, rows, names — is checked
// against the bytes remaining before anything is allocated for it.
// ColumnData.Validate and TableDef.Validate guard what is applied.

// Event flag bits.
const (
	evSameTable = 1 << iota // Schema and Table are the previous event's
	evNextLSN               // LSN is the previous event's plus one
	evHasRow
	evHasOld
	evHasDef
	evHasCols
	evKnownFlags = 1<<iota - 1
)

// Cell tags.
const (
	cellNull     byte = iota
	cellInt           // varint
	cellFloat         // 8 bytes, little-endian IEEE 754 bits
	cellFloatInt      // a float64 holding an exact integer (never -0): varint
	cellString        // uvarint(length) | bytes
	cellFalse
	cellTrue
	cellTime      // varint(Unix seconds) | uvarint(nanoseconds); decoded in UTC
	cellSame      // the same column of the previous row (of this table, this width); in cols, the previous cell
	cellStringRef // uvarint(index): the index-th string this column has spelled (since its table was named; in cols, in this vector)
)

// maxFloatInt bounds cellFloatInt to the range where every integer is
// a float64 and the varint is shorter than the 8 raw bytes.
const maxFloatInt = 1 << 53

// minEventBytes is the shortest possible event: kind, flags and the
// two time deltas.
const minEventBytes = 4

// The most events, row cells and column cells DecodeEvents allocates
// for on a declared count alone: two full sender batches, wider than
// any fact table, and a LOAD of a sizable table.
const (
	maxEventsHint = 1024
	maxWidthHint  = 64
	maxRowsHint   = 1 << 14
)

// codecState is what an event is coded against; encoder and decoder
// advance it identically. The previous row is boxed (row) where the
// events are, and a position into column vectors (vcols, vpos) where a
// commit codes its rows from its tables' vectors (appendLogged). The
// encoder finds the strings already spelled in refs and vrefs, the
// decoder in strs and vstrs. A released state is reused with the
// memory of those four (codecStates), so that coding into a reused
// buffer allocates nothing and decoding allocates only what it returns.
type codecState struct {
	schema, table string
	lsn           uint64
	sec, nsec     int64          // commit time of the previous event
	row           []any          // previous row, nil after a change of table
	vcols         []ColumnVector // previous row's vectors, when coded from vectors; nil after a change of table
	vpos          int
	refs          strRefs // encoder: the strings each column has spelled since the table was named
	vrefs         strRefs // encoder: the strings the LOAD vector being coded has spelled
	strs          [][]any // decoder: per column, the strings it has spelled since the table was named
	vstrs         []any   // decoder: the strings the LOAD vector being read has spelled
}

// codecStates keeps released states for reuse, so that coding into a
// reused buffer allocates nothing. It is a short free list rather than
// a sync.Pool, which under the race detector drops a random quarter of
// what it is given.
var codecStates struct {
	mu   sync.Mutex
	free []*codecState
}

// A released state is kept only while the free list holds fewer than
// maxFreeStates, and only if its index slots and lists of spelled
// strings hold at most maxFreeStrings entries together: one that grew
// past that, coding or reading a large LOAD, is dropped rather than
// held.
const (
	maxFreeStates  = 4
	maxFreeStrings = 4096
)

func newCodecState() *codecState {
	codecStates.mu.Lock()
	defer codecStates.mu.Unlock()
	n := len(codecStates.free)
	if n == 0 {
		return new(codecState)
	}
	st := codecStates.free[n-1]
	codecStates.free[n-1] = nil
	codecStates.free = codecStates.free[:n-1]
	return st
}

// release lets go of every value st refers to and keeps it for reuse.
func (st *codecState) release() {
	st.switchTable("", "")
	st.vrefs.reset()
	clear(st.vstrs)
	size := len(st.refs.slots) + len(st.vrefs.slots) + cap(st.vstrs)
	for _, l := range st.strs {
		size += cap(l)
	}
	if size > maxFreeStrings || len(st.strs) > maxWidthHint {
		return
	}
	st.lsn, st.sec, st.nsec, st.vpos, st.vstrs = 0, 0, 0, 0, st.vstrs[:0]
	codecStates.mu.Lock()
	if len(codecStates.free) < maxFreeStates {
		codecStates.free = append(codecStates.free, st)
	}
	codecStates.mu.Unlock()
}

func (st *codecState) switchTable(schema, table string) {
	st.schema, st.table, st.row, st.vcols = schema, table, nil, nil
	st.refs.reset()
	for i := range st.strs {
		clear(st.strs[i])
		st.strs[i] = st.strs[i][:0]
	}
}

// spelled returns the strings column col has spelled since its table
// was named.
func (st *codecState) spelled(col int) []any {
	if col < len(st.strs) {
		return st.strs[col]
	}
	return nil
}

// spell records that column col spelled v.
func (st *codecState) spell(col int, v any) {
	for len(st.strs) <= col {
		st.strs = append(st.strs, nil)
	}
	st.strs[col] = append(st.strs[col], v)
}

// strRefs indexes spelled strings by column and value: an
// open-addressed table of entries, each holding its string, its column
// and its index among that column's spelled strings. A slot is 0 when
// empty, else the entry's position plus one in its low half and the
// hash's high half in its high half.
type strRefs struct {
	counts  []uint32 // per column, the strings spelled
	entries []refEntry
	slots   []uint64 // a power of two, at least twice len(entries)
}

type refEntry struct {
	s              string
	col, idx, slot uint32
}

var refSeed = maphash.MakeSeed()

func refHash(col int, s string) uint64 {
	return maphash.String(refSeed, s) ^ uint64(col)*0x9e3779b97f4a7c15
}

// ref returns the index of s among the strings column col has spelled.
// When the column has spelled no string equal to s, it records s as the
// column's next and returns false: the caller spells it.
func (t *strRefs) ref(col int, s string) (uint32, bool) {
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.grow()
	}
	h := refHash(col, s)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := t.slots[i]
		if sl == 0 {
			for len(t.counts) <= col {
				t.counts = append(t.counts, 0)
			}
			t.entries = append(t.entries, refEntry{s: s, col: uint32(col), idx: t.counts[col], slot: uint32(i)})
			t.counts[col]++
			t.slots[i] = h&^math.MaxUint32 | uint64(len(t.entries))
			return 0, false
		}
		if sl&^math.MaxUint32 == h&^math.MaxUint32 {
			if e := &t.entries[uint32(sl)-1]; e.col == uint32(col) && e.s == s {
				return e.idx, true
			}
		}
	}
}

// grow doubles the slots (to 64 at first) and places every entry again.
func (t *strRefs) grow() {
	t.slots = make([]uint64, max(64, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for n := range t.entries {
		e := &t.entries[n]
		h := refHash(int(e.col), e.s)
		i := h & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h&^math.MaxUint32 | uint64(n+1)
		e.slot = uint32(i)
	}
}

// reset forgets every spelled string, in time proportional to their
// number.
func (t *strRefs) reset() {
	for i := range t.entries {
		t.slots[t.entries[i].slot] = 0
	}
	clear(t.entries)
	t.entries = t.entries[:0]
	clear(t.counts)
	t.counts = t.counts[:0]
}

// AppendEvents appends the encoding of evs to dst and returns the
// extended buffer. Cells must be canonical column values (nil, int64,
// float64, string, bool, time.Time) — what the binlog holds — and a
// Cols payload must name every column and hold Rows cells in each;
// anything else is a bug in the producer and panics.
func AppendEvents(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	st := newCodecState()
	defer st.release()
	for i := range evs {
		ev := &evs[i]
		dst = st.appendHeader(dst, ev, ev.Row != nil, ev.Old != nil)
		if ev.Row != nil {
			dst = st.appendRow(dst, ev.Row)
		}
		if ev.Old != nil {
			dst = st.appendRow(dst, ev.Old)
		}
		dst = st.appendTail(dst, ev)
	}
	return dst
}

// appendLogged appends the encoding of one block of a commit's events,
// numbered from LSN first and given the commit time now, exactly as
// AppendEvents codes the events they stand for: a row event's cells
// are coded from the vectors that hold its row, with the same cell
// tags, cellSame and cellStringRef rules as a boxed row's, and boxed
// nowhere.
func appendLogged(dst []byte, evs []loggedEvent, first uint64, now time.Time) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	st := newCodecState()
	defer st.release()
	for i := range evs {
		le := &evs[i]
		if le.ev == nil { // a row event
			ev := Event{LSN: first + uint64(i), Time: now, Kind: le.kind, Schema: le.tab.schema, Table: le.tab.def.Name}
			dst = st.appendHeader(dst, &ev, le.kind != EvDelete, le.kind == EvDelete)
			dst = st.appendVecRow(dst, le.cols, le.pos)
			continue
		}
		ev := le.ev
		ev.LSN = first + uint64(i)
		if ev.Time.IsZero() {
			ev.Time = now
		}
		dst = st.appendTail(st.appendHeader(dst, ev, false, false), ev)
	}
	return dst
}

// appendHeader codes an event's kind, flags, names, LSN and time
// against st; hasRow and hasOld say which row it carries.
func (st *codecState) appendHeader(dst []byte, ev *Event, hasRow, hasOld bool) []byte {
	var flags byte
	if ev.Schema == st.schema && ev.Table == st.table {
		flags |= evSameTable
	}
	if ev.LSN == st.lsn+1 {
		flags |= evNextLSN
	}
	if hasRow {
		flags |= evHasRow
	}
	if hasOld {
		flags |= evHasOld
	}
	if ev.Def != nil {
		flags |= evHasDef
	}
	if ev.Cols != nil {
		flags |= evHasCols
	}
	dst = binary.AppendUvarint(dst, uint64(ev.Kind))
	dst = append(dst, flags)
	if flags&evSameTable == 0 {
		dst = appendString(dst, ev.Schema)
		dst = appendString(dst, ev.Table)
		st.switchTable(ev.Schema, ev.Table)
	}
	if flags&evNextLSN == 0 {
		dst = binary.AppendUvarint(dst, ev.LSN)
	}
	st.lsn = ev.LSN
	sec, nsec := ev.Time.Unix(), int64(ev.Time.Nanosecond())
	dst = binary.AppendVarint(dst, sec-st.sec)
	dst = binary.AppendVarint(dst, nsec-st.nsec)
	st.sec, st.nsec = sec, nsec
	return dst
}

// appendTail codes what follows an event's rows: its definition and
// its LOAD payload.
func (st *codecState) appendTail(dst []byte, ev *Event) []byte {
	if ev.Def != nil {
		dst = appendDef(dst, ev.Def)
	}
	if ev.Cols != nil {
		dst = appendCols(dst, ev.Cols, &st.vrefs)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func appendFlag(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendDef(dst []byte, d *TableDef) []byte {
	dst = binary.AppendUvarint(appendString(dst, d.Name), uint64(len(d.Columns)))
	for _, c := range d.Columns {
		dst = appendFlag(append(appendString(dst, c.Name), byte(c.Type)), c.Nullable)
	}
	dst = binary.AppendUvarint(appendStrings(dst, d.PrimaryKey), 0) // an empty index list: see eventReader.def
	return appendFlag(dst, d.Derived)
}

// appendCols codes a payload column by column, each cell against the
// one above it and the strings spelled above it, which refs indexes.
func appendCols(dst []byte, cd *ColumnData, refs *strRefs) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(cd.Rows)), uint64(len(cd.Cols)))
	for i := range cd.Cols {
		v := &cd.Cols[i]
		dst = appendFlag(append(appendString(dst, cd.Names[i]), byte(v.Type)), v.Nulls != nil)
		refs.reset()
		for r := 0; r < cd.Rows; r++ {
			if r == 0 {
				dst = appendVecCell(dst, refs, 0, v, r, nil, 0)
			} else {
				dst = appendVecCell(dst, refs, 0, v, r, v, r-1)
			}
		}
	}
	return dst
}

func (st *codecState) appendRow(dst []byte, row []any) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	prev := st.row
	if len(prev) != len(row) {
		prev = nil
	}
	for i, v := range row {
		var p any
		if prev != nil {
			p = prev[i]
		}
		dst = appendCell(dst, &st.refs, i, v, p)
	}
	st.row = row
	return dst
}

// appendVecRow codes row pos of cols as appendRow codes the same row
// boxed, against the previous row coded from vectors.
func (st *codecState) appendVecRow(dst []byte, cols []ColumnVector, pos int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	prev := st.vcols
	if len(prev) != len(cols) {
		prev = nil
	}
	for i := range cols {
		if prev != nil {
			dst = appendVecCell(dst, &st.refs, i, &cols[i], pos, &prev[i], st.vpos)
		} else {
			dst = appendVecCell(dst, &st.refs, i, &cols[i], pos, nil, 0)
		}
	}
	st.vcols, st.vpos = cols, pos
	return dst
}

// appendCell encodes v, a cell of column col, as cellSame when it is
// identical to prev (the cell above it, nil when there is none); any
// other string goes through appendStringCell. Floats compare by bits
// so that -0 and NaN payloads survive; null and bool cells are one byte
// already. appendVecCell is the same rule over typed cells.
func appendCell(dst []byte, refs *strRefs, col int, v, prev any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, cellNull)
	case int64:
		if p, ok := prev.(int64); ok && p == x {
			return append(dst, cellSame)
		}
		return appendIntCell(dst, x)
	case float64:
		if p, ok := prev.(float64); ok && math.Float64bits(p) == math.Float64bits(x) {
			return append(dst, cellSame)
		}
		return appendFloatCell(dst, x)
	case string:
		if p, ok := prev.(string); ok && p == x {
			return append(dst, cellSame)
		}
		return appendStringCell(dst, refs, col, x)
	case bool:
		return appendBoolCell(dst, x)
	case time.Time:
		if p, ok := prev.(time.Time); ok && p == x {
			return append(dst, cellSame)
		}
		return appendTimeCell(dst, x.Unix(), int64(x.Nanosecond()))
	default:
		panic(fmt.Sprintf("warehouse: event cell of type %T is not a canonical column value", v))
	}
}

// appendVecCell encodes cell pos of v as appendCell encodes its value,
// as cellSame when cell ppos of prev (the cell above it, a vector of
// the same type; nil when there is none) holds the same value. A
// vector's Nulls may be nil: no cell is NULL.
func appendVecCell(dst []byte, refs *strRefs, col int, v *ColumnVector, pos int, prev *ColumnVector, ppos int) []byte {
	if v.Nulls != nil && v.Nulls[pos] {
		return append(dst, cellNull)
	}
	above := prev != nil && (prev.Nulls == nil || !prev.Nulls[ppos])
	switch v.Type {
	case TypeInt:
		x := v.Ints[pos]
		if above && prev.Ints[ppos] == x {
			return append(dst, cellSame)
		}
		return appendIntCell(dst, x)
	case TypeFloat:
		x := v.Floats[pos]
		if above && math.Float64bits(prev.Floats[ppos]) == math.Float64bits(x) {
			return append(dst, cellSame)
		}
		return appendFloatCell(dst, x)
	case TypeString:
		x := v.Dict[v.Codes[pos]]
		if above && prev.Dict[prev.Codes[ppos]] == x {
			return append(dst, cellSame)
		}
		return appendStringCell(dst, refs, col, x)
	case TypeBool:
		return appendBoolCell(dst, v.Bools[pos])
	case TypeTime:
		n := v.Nanos[pos]
		if above && prev.Nanos[ppos] == n {
			return append(dst, cellSame)
		}
		sec, nsec := n/1e9, n%1e9
		if nsec < 0 {
			sec, nsec = sec-1, nsec+1e9
		}
		return appendTimeCell(dst, sec, nsec)
	default:
		panic(fmt.Sprintf("warehouse: event cell of column type %s", v.Type))
	}
}

func appendIntCell(dst []byte, x int64) []byte {
	return binary.AppendVarint(append(dst, cellInt), x)
}

func appendFloatCell(dst []byte, x float64) []byte {
	if x >= -maxFloatInt && x <= maxFloatInt && float64(int64(x)) == x && !(x == 0 && math.Signbit(x)) {
		return binary.AppendVarint(append(dst, cellFloatInt), int64(x))
	}
	return binary.LittleEndian.AppendUint64(append(dst, cellFloat), math.Float64bits(x))
}

// appendStringCell codes x, a string of column col, as a reference to
// its first spelling when refs has one, and spells it otherwise.
func appendStringCell(dst []byte, refs *strRefs, col int, x string) []byte {
	if idx, ok := refs.ref(col, x); ok {
		return binary.AppendUvarint(append(dst, cellStringRef), uint64(idx))
	}
	return appendString(append(dst, cellString), x)
}

func appendBoolCell(dst []byte, x bool) []byte {
	if x {
		return append(dst, cellTrue)
	}
	return append(dst, cellFalse)
}

// appendTimeCell encodes a time by its Unix seconds and nanoseconds
// (0 <= nsec < 1e9).
func appendTimeCell(dst []byte, sec, nsec int64) []byte {
	return binary.AppendUvarint(binary.AppendVarint(append(dst, cellTime), sec), uint64(nsec))
}

// DecodeEvents decodes a buffer written by AppendEvents. It is strict:
// a declared count, width or length the remaining bytes cannot hold is
// an error before anything is allocated for it, as are an unknown
// kind, flag bit, flag byte, column type or cell tag, a cellSame with
// no previous row of that table and width (or, in a LOAD, no cell
// above it), a cellStringRef past the strings its column has spelled
// (or in a LOAD vector that is not of strings), a LOAD cell its column
// cannot hold, and trailing bytes. The event slice, a row and a LOAD's
// vectors start at no more than maxEventsHint, maxWidthHint and
// maxRowsHint entries and grow as their bytes are consumed, and a
// column's spelled strings grow by one per string it spells, so what a
// buffer makes the decoder allocate follows what it holds, not what it
// declares. Decoded strings own their bytes (or share the previous
// cell's, or the spelling a reference names); nothing aliases b.
func DecodeEvents(b []byte) ([]Event, error) {
	r := eventReader{b: b}
	n := r.count("events", minEventBytes)
	if r.err != nil {
		return nil, r.err
	}
	evs, err := r.events(make([]Event, 0, min(n, maxEventsHint)), n)
	if err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("warehouse: decode events: %d trailing bytes", len(r.b))
	}
	return evs, nil
}

// decodeBlock appends the first n events of a binlog block to dst,
// leaving the rest undecoded. The block is the binlog's own coding, and
// n is at most the count the binlog keeps beside it.
func decodeBlock(dst []Event, b []byte, n int) ([]Event, error) {
	r := eventReader{b: b}
	r.uvarint() // the block's event count
	return r.events(dst, n)
}

// events decodes the next n events, appending them to dst.
func (r *eventReader) events(dst []Event, n int) ([]Event, error) {
	st := newCodecState()
	defer st.release()
	for ; n > 0; n-- {
		dst = append(dst, Event{})
		r.event(st, &dst[len(dst)-1])
		if r.err != nil {
			return nil, r.err
		}
	}
	return dst, nil
}

// eventReader consumes a buffer front to back. The first failure
// sticks: it empties the buffer, and every later read returns zero.
type eventReader struct {
	b   []byte
	err error
}

func (r *eventReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("warehouse: decode events: "+format, args...)
	}
	r.b = nil
}

func (r *eventReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *eventReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *eventReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// take returns the next n bytes, still aliasing the buffer.
func (r *eventReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("declared length %d exceeds the %d bytes remaining", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *eventReader) string() string { return string(r.take(r.uvarint())) }

// count reads a declared count of items of at least size bytes each,
// and fails (returning 0) when the bytes remaining cannot hold them.
func (r *eventReader) count(what string, size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		r.fail("%d %s cannot fit in %d bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *eventReader) flag() bool {
	c := r.byte()
	if c > 1 {
		r.fail("flag byte %d is neither 0 nor 1", c)
	}
	return c == 1
}

// strings reads a counted list of strings; an empty list is nil.
func (r *eventReader) strings() []string {
	var ss []string
	for n := r.count("strings", 1); n > 0 && r.err == nil; n-- {
		ss = append(ss, r.string())
	}
	return ss
}

func (r *eventReader) def() *TableDef {
	d := &TableDef{Name: r.string()}
	for n := r.count("columns", 3); n > 0 && r.err == nil; n-- {
		d.Columns = append(d.Columns, Column{Name: r.string(), Type: ColumnType(r.byte()), Nullable: r.flag()})
	}
	d.PrimaryKey = r.strings()
	// A list of secondary indexes, which tables no longer have: bytes
	// coded before they went carry one. It is read and dropped.
	for n := r.count("indexes", 1); n > 0 && r.err == nil; n-- {
		r.strings()
	}
	d.Derived = r.flag()
	return d
}

// cols reads a LOAD payload. Every cell is at least its tag byte, so
// the row count is bounded by the bytes remaining, and each vector
// starts at no more than maxRowsHint cells and grows as they decode.
func (r *eventReader) cols(st *codecState) *ColumnData {
	cd := &ColumnData{Rows: r.count("rows", 1)}
	for n := r.count("columns", 3); n > 0 && r.err == nil; n-- {
		cd.Names = append(cd.Names, r.string())
		v := ColumnVector{Type: ColumnType(r.byte())}
		validity := r.flag()
		if v.Type < TypeInt || v.Type > TypeTime {
			r.fail("unknown column type %d", v.Type)
		} else if cd.Rows > len(r.b) {
			r.fail("%d cells cannot fit in %d bytes", cd.Rows, len(r.b))
		}
		v.Reserve(min(cd.Rows, maxRowsHint))
		var ix store.Index
		var prev any
		clear(st.vstrs)
		st.vstrs = st.vstrs[:0]
		name := cd.Names[len(cd.Names)-1]
		for i := 0; i < cd.Rows && r.err == nil; i++ {
			x, tag := r.cell()
			switch {
			case tag == cellSame && i == 0:
				r.fail("cell 0 of column %q repeats the cell above it, but there is none", name)
			case tag == cellSame:
				x = prev
			case tag == cellStringRef && v.Type != TypeString:
				r.fail("cell %d of column %q refers to a string in a %s vector", i, name, v.Type)
			case tag == cellStringRef:
				if idx := r.uvarint(); idx < uint64(len(st.vstrs)) {
					x = st.vstrs[idx]
				} else if r.err == nil {
					r.fail("cell %d of column %q refers to string %d of the column, which has spelled %d", i, name, idx, len(st.vstrs))
				}
			case tag == cellString:
				st.vstrs = append(st.vstrs, x)
			}
			if r.err != nil {
				break
			}
			if x == nil && !validity || !v.AppendValue(x, &ix) {
				if t, ok := x.(time.Time); ok && v.Type == TypeTime {
					r.fail("cell %d of column %q: time %v is outside the years 1678 to 2262", i, name, t)
				} else {
					r.fail("cell %d of column %q cannot be a %T in a %s vector (validity: %t)", i, name, x, v.Type, validity)
				}
			}
			prev = x
		}
		if !validity {
			v.Nulls = nil
		}
		cd.Cols = append(cd.Cols, v)
	}
	return cd
}

func (r *eventReader) event(st *codecState, ev *Event) {
	kind, flags := r.uvarint(), r.byte()
	if r.err != nil {
		return
	}
	if kind < uint64(EvInsert) || kind > uint64(EvLoad) {
		r.fail("unknown event kind %d", kind)
		return
	}
	if flags&^evKnownFlags != 0 {
		r.fail("unknown flag bits %#x", flags&^evKnownFlags)
		return
	}
	ev.Kind = EventKind(kind)
	if flags&evSameTable == 0 {
		schema, table := r.string(), r.string()
		st.switchTable(schema, table)
	}
	ev.Schema, ev.Table = st.schema, st.table
	if flags&evNextLSN == 0 {
		st.lsn = r.uvarint()
	} else {
		st.lsn++
	}
	ev.LSN = st.lsn
	st.sec += r.varint()
	st.nsec += r.varint()
	if st.nsec < 0 || st.nsec >= 1e9 {
		r.fail("commit time nanoseconds %d out of range", st.nsec)
		return
	}
	ev.Time = time.Unix(st.sec, st.nsec).UTC()
	if flags&evHasRow != 0 {
		ev.Row = r.row(st)
	}
	if flags&evHasOld != 0 {
		ev.Old = r.row(st)
	}
	if flags&evHasDef != 0 {
		ev.Def = r.def()
	}
	if flags&evHasCols != 0 {
		ev.Cols = r.cols(st)
	}
}

func (r *eventReader) row(st *codecState) []any {
	width := r.count("cells", 1)
	if r.err != nil {
		return nil
	}
	row := make([]any, 0, min(width, maxWidthHint))
	prev := st.row
	if len(prev) != width {
		prev = nil
	}
	for i := 0; i < width; i++ {
		v, tag := r.cell()
		switch tag {
		case cellSame:
			if prev == nil {
				r.fail("cell %d repeats a previous row, but %s.%s has none of width %d before it",
					i, st.schema, st.table, width)
			} else {
				v = prev[i]
			}
		case cellStringRef:
			spelled := st.spelled(i)
			if idx := r.uvarint(); idx < uint64(len(spelled)) {
				v = spelled[idx]
			} else if r.err == nil {
				r.fail("cell %d refers to string %d of its column, but %s.%s has spelled %d there since it was named",
					i, idx, st.schema, st.table, len(spelled))
			}
		case cellString:
			st.spell(i, v)
		}
		if r.err != nil {
			return nil
		}
		row = append(row, v)
	}
	st.row = row
	return row
}

// cell reads one cell and returns its tag. A cellSame or cellStringRef
// tag reads with no value: the caller knows the cell it repeats, and
// reads the reference's index.
func (r *eventReader) cell() (v any, tag byte) {
	switch tag = r.byte(); tag {
	case cellNull:
	case cellInt:
		v = r.varint()
	case cellFloat:
		if bits := r.take(8); bits != nil {
			v = math.Float64frombits(binary.LittleEndian.Uint64(bits))
		}
	case cellFloatInt:
		v = float64(r.varint())
	case cellString:
		v = r.string()
	case cellFalse:
		v = false
	case cellTrue:
		v = true
	case cellTime:
		sec, nsec := r.varint(), r.uvarint()
		if nsec >= 1e9 {
			r.fail("time cell nanoseconds %d out of range", nsec)
		}
		v = time.Unix(sec, int64(nsec)).UTC()
	case cellSame, cellStringRef:
	default:
		r.fail("unknown cell tag %d", tag)
	}
	return v, tag
}
