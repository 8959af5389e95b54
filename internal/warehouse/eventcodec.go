package warehouse

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
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
//	         | uvarint(m) | (uvarint(w) | string{w}){m}   indexes
//	         | flag(derived)
//	column = string(name) | type byte | flag(nullable)
//
// and a LOAD's table contents are coded column-major:
//
//	cols   = uvarint(rows) | uvarint(n) | vector{n}
//	vector = string(name) | type byte | flag(has validity vector) | cell{rows}
//
// with the row codec's cell tags, restricted to the column's type (and
// to cellNull where the vector has validity); there cellSame repeats
// the previous cell of the same column.
//
// Every event is coded against what preceded it in the same buffer,
// starting from the zero state (no schema, LSN 0, the Unix epoch, no
// rows): an event of the previous event's table drops both names, the
// next LSN drops the number, the commit time is a delta, and a cell
// equal to the same column of the previous row is one cellSame byte —
// which the decoder answers by sharing the previous row's value instead
// of allocating one. The previous row is the last one coded since the
// buffer last named a table: a change of table forgets it. A buffer is
// therefore self-contained, and its events are not separable.
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
	cellTime // varint(Unix seconds) | uvarint(nanoseconds); decoded in UTC
	cellSame // the same column of the previous row (of this table, this width); in cols, the previous cell
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
// advance it identically.
type codecState struct {
	schema, table string
	lsn           uint64
	sec, nsec     int64 // commit time of the previous event
	row           []any // previous row, nil after a change of table
}

func (st *codecState) switchTable(schema, table string) {
	st.schema, st.table, st.row = schema, table, nil
}

// AppendEvents appends the encoding of evs to dst and returns the
// extended buffer. Cells must be canonical column values (nil, int64,
// float64, string, bool, time.Time) — what the binlog holds — and a
// Cols payload must name every column and hold Rows cells in each;
// anything else is a bug in the producer and panics.
func AppendEvents(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	var st codecState
	for i := range evs {
		ev := &evs[i]
		var flags byte
		if ev.Schema == st.schema && ev.Table == st.table {
			flags |= evSameTable
		}
		if ev.LSN == st.lsn+1 {
			flags |= evNextLSN
		}
		if ev.Row != nil {
			flags |= evHasRow
		}
		if ev.Old != nil {
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
		if ev.Row != nil {
			dst = st.appendRow(dst, ev.Row)
		}
		if ev.Old != nil {
			dst = st.appendRow(dst, ev.Old)
		}
		if ev.Def != nil {
			dst = appendDef(dst, ev.Def)
		}
		if ev.Cols != nil {
			dst = appendCols(dst, ev.Cols)
		}
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
	dst = binary.AppendUvarint(appendStrings(dst, d.PrimaryKey), uint64(len(d.Indexes)))
	for _, ix := range d.Indexes {
		dst = appendStrings(dst, ix)
	}
	return appendFlag(dst, d.Derived)
}

// appendCols codes a payload column by column, each cell against the
// one above it.
func appendCols(dst []byte, cd *ColumnData) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(cd.Rows)), uint64(len(cd.Cols)))
	for i := range cd.Cols {
		v := &cd.Cols[i]
		dst = appendFlag(append(appendString(dst, cd.Names[i]), byte(v.Type)), v.Nulls != nil)
		var prev any
		for r := 0; r < cd.Rows; r++ {
			x := v.Value(r)
			dst, prev = appendCell(dst, x, prev), x
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
		dst = appendCell(dst, v, p)
	}
	st.row = row
	return dst
}

// appendCell encodes v, as cellSame when it is identical to prev (the
// cell above it, nil when there is none). Floats compare by bits so
// that -0 and NaN payloads survive; null and bool cells are one byte
// already.
func appendCell(dst []byte, v, prev any) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, cellNull)
	case int64:
		if p, ok := prev.(int64); ok && p == x {
			return append(dst, cellSame)
		}
		return binary.AppendVarint(append(dst, cellInt), x)
	case float64:
		if p, ok := prev.(float64); ok && math.Float64bits(p) == math.Float64bits(x) {
			return append(dst, cellSame)
		}
		if x >= -maxFloatInt && x <= maxFloatInt && float64(int64(x)) == x && !(x == 0 && math.Signbit(x)) {
			return binary.AppendVarint(append(dst, cellFloatInt), int64(x))
		}
		return binary.LittleEndian.AppendUint64(append(dst, cellFloat), math.Float64bits(x))
	case string:
		if p, ok := prev.(string); ok && p == x {
			return append(dst, cellSame)
		}
		return appendString(append(dst, cellString), x)
	case bool:
		if x {
			return append(dst, cellTrue)
		}
		return append(dst, cellFalse)
	case time.Time:
		if p, ok := prev.(time.Time); ok && p == x {
			return append(dst, cellSame)
		}
		dst = binary.AppendVarint(append(dst, cellTime), x.Unix())
		return binary.AppendUvarint(dst, uint64(x.Nanosecond()))
	default:
		panic(fmt.Sprintf("warehouse: event cell of type %T is not a canonical column value", v))
	}
}

// DecodeEvents decodes a buffer written by AppendEvents. It is strict:
// a declared count, width or length the remaining bytes cannot hold is
// an error before anything is allocated for it, as are an unknown
// kind, flag bit, flag byte, column type or cell tag, a cellSame with
// no previous row of that table and width (or, in a LOAD, no cell
// above it), a LOAD cell its column cannot hold, and trailing bytes.
// The event slice, a row and a LOAD's vectors start at no more than
// maxEventsHint, maxWidthHint and maxRowsHint entries and grow as their
// bytes are consumed, so what a buffer makes the decoder allocate
// follows what it holds, not what it declares. Decoded strings own
// their bytes (or share the previous cell's); nothing aliases b.
func DecodeEvents(b []byte) ([]Event, error) {
	r := eventReader{b: b}
	n := r.count("events", minEventBytes)
	if r.err != nil {
		return nil, r.err
	}
	evs := make([]Event, 0, min(n, maxEventsHint))
	var st codecState
	for ; n > 0; n-- {
		evs = append(evs, Event{})
		r.event(&st, &evs[len(evs)-1])
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("warehouse: decode events: %d trailing bytes", len(r.b))
	}
	return evs, nil
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
	for n := r.count("indexes", 1); n > 0 && r.err == nil; n-- {
		d.Indexes = append(d.Indexes, r.strings())
	}
	d.Derived = r.flag()
	return d
}

// cols reads a LOAD payload. Every cell is at least its tag byte, so
// the row count is bounded by the bytes remaining, and each vector
// starts at no more than maxRowsHint cells and grows as they decode.
func (r *eventReader) cols() *ColumnData {
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
		var prev any
		for i := 0; i < cd.Rows && r.err == nil; i++ {
			x, same := r.cell()
			if same && i > 0 {
				x = prev
			}
			if same && i == 0 || x == nil && !validity || !v.AppendValue(x) {
				r.fail("cell %d of column %q cannot be a %T in a %s vector (validity: %t)", i, cd.Names[len(cd.Names)-1], x, v.Type, validity)
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
		ev.Cols = r.cols()
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
		v, same := r.cell()
		if same && prev == nil {
			r.fail("cell %d repeats a previous row, but %s.%s has none of width %d before it",
				i, st.schema, st.table, width)
		} else if same {
			v = prev[i]
		}
		if r.err != nil {
			return nil
		}
		row = append(row, v)
	}
	st.row = row
	return row
}

// cell reads one cell. A cellSame tag reads as same, with no value: the
// caller knows the cell it repeats.
func (r *eventReader) cell() (v any, same bool) {
	switch tag := r.byte(); tag {
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
	case cellSame:
		same = true
	default:
		r.fail("unknown cell tag %d", tag)
	}
	return v, same
}
