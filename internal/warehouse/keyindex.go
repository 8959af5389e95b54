package warehouse

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"

	"xdmodfed/internal/warehouse/store"
)

// The key index. A table finds a row by its primary key through a
// keyIndex: an open-addressing hash table of row positions, one entry
// per key, that holds no Go pointer per slot, so the collector never
// walks it slot by slot and no key is ever rendered into a string. A
// table has no other index: rows are found by key or by a scan.
//
// A key is its cells read straight from the column vectors (keyCell):
// an int or a time as stored (Unix nanoseconds), a float's bits, a
// bool as 0 or 1, a string as its code in the table's dictionary, and a
// NULL mark. Two keys are equal when their cells are: floats by bits,
// so -0 and 0 are distinct keys and so are NaNs with different
// payloads; NULL equals NULL and no value. The key's hash is maphash
// over those cells under a seed drawn per table, so an input crafted to
// collide on one instance does not collide on another.
//
// A table's dictionary only grows until a truncate, compaction or bulk
// load replaces it, and each of those rebuilds the index, so a
// string's code names one value for as long as the index holds it.
//
// The index is never persisted: WAL, snapshot and wire bytes do not
// depend on it.

// keyIndex is the index over the key columns cols. Each slot packs 32
// bits of a key's hash (high half) with its row position plus one (low
// half; 0 is an empty slot). A key's probe starts at the slot its hash
// bits name and runs forward to the first empty slot; growing re-homes
// the slots by their stored bits and never reads a cell. A candidate's
// cells are read back only when its stored bits equal the probe's. Row
// positions are below 2^32-1.
type keyIndex struct {
	cols  []int    // the key's columns, in key order
	slots []uint64 // hash bits<<32 | position+1; 0 = empty
	used  int      // occupied slots
}

const minKeySlots = 8

// newKeyIndex returns an empty index over cols with room for n keys.
func newKeyIndex(cols []int, n int) *keyIndex {
	ix := &keyIndex{cols: cols}
	ix.reserve(n)
	return ix
}

func packSlot(h uint32, pos int) uint64 { return uint64(h)<<32 | uint64(uint32(pos+1)) }
func slotHash(s uint64) uint32          { return uint32(s >> 32) }
func slotPos(s uint64) int              { return int(uint32(s)) - 1 }

// reserve makes room for k more entries at a load of at most 3/4 and
// reports whether it had to grow the index, which moves every slot.
func (ix *keyIndex) reserve(k int) bool {
	need := ix.used + k
	if need*4 <= len(ix.slots)*3 {
		return false
	}
	size := max(len(ix.slots), minKeySlots)
	for need*4 > size*3 {
		size *= 2
	}
	old := ix.slots
	ix.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			ix.place(s)
		}
	}
	return true
}

// place puts slot value s in the first empty slot of its probe and
// returns that slot. There must be one.
func (ix *keyIndex) place(s uint64) int {
	mask := len(ix.slots) - 1
	i := int(slotHash(s)) & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
	return i
}

// add enters pos under hash h, a key ix does not hold.
func (ix *keyIndex) add(h uint32, pos int) {
	ix.reserve(1)
	ix.place(packSlot(h, pos))
	ix.used++
}

// find returns the position entered under hash h for which same holds,
// and its slot; or -1 and the empty slot that ends the probe, where the
// key would go (-1 when the index has no slots). To fill an empty slot
// with set, call reserve(1) first, or after find and then find again if
// it grew the index.
func (ix *keyIndex) find(h uint32, same func(pos int) bool) (pos, slot int) {
	if len(ix.slots) == 0 {
		return -1, -1
	}
	mask := len(ix.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1, i
		}
		if slotHash(s) == h && same(slotPos(s)) {
			return slotPos(s), i
		}
	}
}

// set makes slot i, a slot find returned, hold pos under hash h: an
// empty slot becomes occupied, an occupied one (the key's) moves to pos.
func (ix *keyIndex) set(i int, h uint32, pos int) {
	if ix.slots[i] == 0 {
		ix.used++
	}
	ix.slots[i] = packSlot(h, pos)
}

// remove drops position pos, entered under hash h, if ix holds it.
// Later slots of the run shift back into the hole (no tombstone is
// left), each unless that would put it before its home slot.
func (ix *keyIndex) remove(h uint32, pos int) {
	if len(ix.slots) == 0 {
		return
	}
	mask, want := len(ix.slots)-1, packSlot(h, pos)
	i := int(h) & mask
	for ix.slots[i] != want {
		if ix.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		home := int(slotHash(ix.slots[j])) & mask
		if (j-home)&mask >= (j-i)&mask { // home is not in (i, j]
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
	ix.used--
}

// keyCell is one key cell as the key indexes hash and compare it: a
// NULL, or a non-NULL cell's 64 bits (see the top of this file).
type keyCell struct {
	w    uint64
	null bool
}

// keyCellsOnStack is the key width whose cells a probe holds on the
// stack; a wider key's cells spill to the heap.
const keyCellsOnStack = 16

// hashKey hashes a key's cells under the table's seed: their words and
// the mask of NULL cells, laid out in one buffer for a single
// maphash.Bytes (several times faster than a maphash.Hash written word
// by word).
func (t *Table) hashKey(cells []keyCell) uint32 {
	var buf [8 * (keyCellsOnStack + 1)]byte
	b := buf[:0]
	var nulls uint64
	for n, c := range cells {
		b = binary.LittleEndian.AppendUint64(b, c.w)
		if c.null {
			nulls |= 1 << (n % 64)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, nulls)
	return uint32(maphash.Bytes(t.seed, b))
}

// codeMap says how the string codes of some vectors become codes of the
// table's dictionary. The zero codeMap: they are the table's own (the
// table's vectors, vectors a rebuild is about to install). to: by
// column, a Translate result (a batch payload).
type codeMap struct {
	to [][]uint32
}

// cellAt reads cell lp of column ci of cols as a key cell.
func (t *Table) cellAt(cols []ColumnVector, ci, lp int, cm codeMap) keyCell {
	v := &cols[ci]
	if v.Nulls[lp] {
		return keyCell{null: true}
	}
	switch v.Type {
	case TypeInt:
		return keyCell{w: uint64(v.Ints[lp])}
	case TypeFloat:
		return keyCell{w: math.Float64bits(v.Floats[lp])}
	case TypeString:
		c := v.Codes[lp]
		if cm.to != nil {
			c = cm.to[ci][c] - 1
		}
		return keyCell{w: uint64(c)}
	case TypeBool:
		if v.Bools[lp] {
			return keyCell{w: 1}
		}
	case TypeTime:
		return keyCell{w: uint64(v.Nanos[lp])}
	}
	return keyCell{}
}

// keyCells appends the cells of row lp of cols in the columns idx.
func (t *Table) keyCells(dst []keyCell, cols []ColumnVector, lp int, idx []int, cm codeMap) []keyCell {
	for _, ci := range idx {
		dst = append(dst, t.cellAt(cols, ci, lp, cm))
	}
	return dst
}

// rowHolds reports whether row lp of cols holds the key cells in the
// columns idx.
func (t *Table) rowHolds(cols []ColumnVector, lp int, cm codeMap, idx []int, cells []keyCell) bool {
	for n, ci := range idx {
		if t.cellAt(cols, ci, lp, cm) != cells[n] {
			return false
		}
	}
	return true
}

// holds reports whether the stored row at pos holds the key cells in
// the columns idx.
func (t *Table) holds(pos int, idx []int, cells []keyCell) bool {
	return t.rowHolds(t.cols, pos, codeMap{}, idx, cells)
}

// valueCell turns a coerced value of column ci into a key cell; false
// when it is a string the table's dictionary lacks, which no stored row
// then holds.
func (t *Table) valueCell(ci int, v any) (keyCell, bool) {
	switch x := v.(type) {
	case nil:
		return keyCell{null: true}, true
	case int64:
		return keyCell{w: uint64(x)}, true
	case float64:
		return keyCell{w: math.Float64bits(x)}, true
	case string:
		c, ok := t.index[ci].Code(x)
		return keyCell{w: uint64(c)}, ok
	case bool:
		if x {
			return keyCell{w: 1}, true
		}
		return keyCell{}, true
	case time.Time:
		n, _ := store.UnixNanos(x)
		return keyCell{w: uint64(n)}, true
	}
	return keyCell{}, false
}

// rowKey appends the key cells of a coerced row's columns idx; false
// when no stored row can hold the key (valueCell).
func (t *Table) rowKey(dst []keyCell, idx []int, vals []any) ([]keyCell, bool) {
	for _, ci := range idx {
		c, ok := t.valueCell(ci, vals[ci])
		if !ok {
			return dst, false
		}
		dst = append(dst, c)
	}
	return dst, true
}

// probeKey appends the key cells of vals, a key's values in the order
// of the columns idx, each coerced to its column; false when a value
// does not coerce or no stored row can hold the key.
func (t *Table) probeKey(dst []keyCell, idx []int, vals []any) ([]keyCell, bool) {
	if len(vals) != len(idx) {
		return dst, false
	}
	for n, ci := range idx {
		v, err := coerce(t.def.Columns[ci], vals[n])
		if err != nil {
			return dst, false
		}
		c, ok := t.valueCell(ci, v)
		if !ok {
			return dst, false
		}
		dst = append(dst, c)
	}
	return dst, true
}

// lookup returns the position of the stored row whose primary key holds
// cells, and its slot (find).
func (t *Table) lookup(cells []keyCell) (pos, slot int, h uint32) {
	h = t.hashKey(cells)
	pos, slot = t.pk.find(h, func(p int) bool { return t.holds(p, t.pk.cols, cells) })
	return pos, slot, h
}

// storedHash is the hash of the primary key of the stored row at pos.
func (t *Table) storedHash(pos int) uint32 {
	var buf [keyCellsOnStack]keyCell
	return t.hashKey(t.keyCells(buf[:0], t.cols, pos, t.pk.cols, codeMap{}))
}

// enter adds the stored row at pos to the key index.
func (t *Table) enter(pos int) { t.pk.add(t.storedHash(pos), pos) }

// unenter drops the stored row at pos from the key index.
func (t *Table) unenter(pos int) { t.pk.remove(t.storedHash(pos), pos) }

// buildPK returns the key index of rows [0, rows) of cols, vectors whose
// codes are the table's; nil when the table has no primary key. With
// check set it fails on the first row whose key an earlier row holds,
// naming both; without, the rows' keys must be distinct.
func (t *Table) buildPK(cols []ColumnVector, rows int, check bool) (*keyIndex, error) {
	if t.pk == nil {
		return nil, nil
	}
	idx := t.pk.cols
	ix := newKeyIndex(idx, rows)
	var buf [keyCellsOnStack]keyCell
	for pos := 0; pos < rows; pos++ {
		cells := t.keyCells(buf[:0], cols, pos, idx, codeMap{})
		h := t.hashKey(cells)
		if check {
			dup, _ := ix.find(h, func(p int) bool { return t.rowHolds(cols, p, codeMap{}, idx, cells) })
			if dup >= 0 {
				return nil, fmt.Errorf("duplicate primary key %s at rows %d and %d",
					keyText(Row{lay: t.lay, cols: cols, pos: pos}.Values(), idx), dup, pos)
			}
		}
		ix.add(h, pos)
	}
	return ix, nil
}

// keyText renders the key in the columns idx of a row's values for an
// error message.
func keyText(vals []any, idx []int) string {
	parts := make([]string, len(idx))
	for n, ci := range idx {
		switch v := vals[ci].(type) {
		case nil:
			parts[n] = "NULL"
		case string:
			parts[n] = strconv.Quote(v)
		case time.Time:
			parts[n] = v.Format(time.RFC3339Nano)
		default:
			parts[n] = fmt.Sprint(v)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
