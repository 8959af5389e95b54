package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"time"
	"unsafe"
)

// Segment file format, version 1. A sealed segment is one immutable
// columnar block of table rows, laid out so that a page-aligned mapping
// of the file can be read in place:
//
//	header (32 bytes)
//	  [0:8)   magic "XDSEG001" (format version is part of the magic)
//	  [8:12)  byte-order mark 0x1EAFCAFE written in native order; a
//	          reader on a foreign-endian machine sees it reversed and
//	          rejects the file instead of misreading every block
//	  [12:16) u32 version (1)
//	  [16:20) u32 column count
//	  [20:28) u64 row count
//	  [28:32) reserved
//	column directory (56 bytes per column)
//	  kind, flags (bit 0: validity bitmap present), reserved,
//	  data {off,len}, aux {off,len}, null {off,len}
//	blocks (each 8-byte aligned, zero-padded between)
//	  int/float: 8*rows bytes of raw native words (zero-copy view)
//	  bool:      rows bytes, one 0/1 byte per cell (zero-copy view)
//	  time:      data = 8*rows unix seconds, aux = 4*rows nanoseconds
//	  string:    data = 8*(rows+1) u64 offsets, aux = concatenated bytes
//	  validity:  packed bitmap, ceil(rows/8) bytes, bit set = NULL
//	footer (12 bytes)
//	  u32 CRC32C (Castagnoli) over everything before the footer
//	  magic "XDSEGEND"
//
// Numeric blocks are written in native byte order (the mapping is read
// back through unsafe slice views, so no byte swapping ever happens);
// the byte-order mark makes that explicit rather than silent. Header
// and directory integers are explicitly little-endian. The CRC footer
// is what crash recovery keys on: a seal interrupted by a crash leaves
// a file whose footer is missing or whose CRC disagrees, and the store
// discards it on open (the WAL/snapshot remains the durability source,
// so a discarded segment is re-sealed on replay, never lost).

const (
	segMagic    = "XDSEG001"
	segEndMagic = "XDSEGEND"
	segVersion  = 1
	segBOM      = 0x1EAFCAFE

	headerSize = 32
	dirEntry   = 56
	footerSize = 12

	flagHasNulls = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// colDir is one parsed column-directory entry.
type colDir struct {
	kind     ColumnType
	hasNulls bool
	dataOff  uint64
	dataLen  uint64
	auxOff   uint64
	auxLen   uint64
	nullOff  uint64
	nullLen  uint64
}

// segMeta is the validated shape of a mapped segment file.
type segMeta struct {
	rows int
	dirs []colDir
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// little-endian header scalar helpers (the data blocks are native
// order; only the header/directory use a fixed byte order).
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// nativeU32 reads/writes in whatever order this CPU uses — only for
// the byte-order mark, whose whole job is to detect a mismatch.
func putNativeU32(b []byte, v uint32) { *(*uint32)(unsafe.Pointer(&b[0])) = v }
func nativeU32(b []byte) uint32       { return *(*uint32)(unsafe.Pointer(&b[0])) }

// wordBytes views a numeric slice's backing array as raw bytes.
func wordBytes[T int64 | uint64 | float64 | int32 | uint32 | bool | byte](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// segLayout is the computed block placement for one seal.
type segLayout struct {
	dirs []colDir
	size uint64 // total file size, footer included
}

// planLayout assigns every block's offset for sd's columns.
func planLayout(sd *SegmentData) (*segLayout, error) {
	rows := uint64(sd.Rows)
	cur := uint64(headerSize + dirEntry*len(sd.Cols))
	lay := &segLayout{dirs: make([]colDir, len(sd.Cols))}
	for i := range sd.Cols {
		c := &sd.Cols[i]
		d := &lay.dirs[i]
		d.kind = c.Type
		switch c.Type {
		case TypeInt, TypeFloat:
			d.dataLen = 8 * rows
		case TypeBool:
			d.dataLen = rows
		case TypeTime:
			d.dataLen = 8 * rows
			d.auxLen = 4 * rows
		case TypeString:
			d.dataLen = 8 * (rows + 1)
			var total uint64
			for _, s := range c.Strs {
				total += uint64(len(s))
			}
			d.auxLen = total
		default:
			return nil, fmt.Errorf("store: column %d has invalid kind %d", i, c.Type)
		}
		for _, isNull := range c.Nulls {
			if isNull {
				d.hasNulls = true
				d.nullLen = (rows + 7) / 8
				break
			}
		}
		d.dataOff = align8(cur)
		cur = d.dataOff + d.dataLen
		if d.auxLen > 0 {
			d.auxOff = align8(cur)
			cur = d.auxOff + d.auxLen
		}
		if d.nullLen > 0 {
			d.nullOff = align8(cur)
			cur = d.nullOff + d.nullLen
		}
	}
	lay.size = align8(cur) + footerSize
	return lay, nil
}

// crcWriter tracks the running CRC32C and byte count of everything
// written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += uint64(n)
	return n, err
}

var zeroPad [8]byte

// padTo writes zero bytes until the running offset reaches off.
func (cw *crcWriter) padTo(off uint64) error {
	for cw.n < off {
		n := off - cw.n
		if n > 8 {
			n = 8
		}
		if _, err := cw.Write(zeroPad[:n]); err != nil {
			return err
		}
	}
	return nil
}

// writeSegment streams sd to w in segment-file form and returns the
// total byte count written.
func writeSegment(w io.Writer, sd *SegmentData) (int64, error) {
	lay, err := planLayout(sd)
	if err != nil {
		return 0, err
	}
	cw := &crcWriter{w: w}
	hdr := make([]byte, headerSize+dirEntry*len(sd.Cols))
	copy(hdr, segMagic)
	putNativeU32(hdr[8:], segBOM)
	putU32(hdr[12:], segVersion)
	putU32(hdr[16:], uint32(len(sd.Cols)))
	putU64(hdr[20:], uint64(sd.Rows))
	for i, d := range lay.dirs {
		e := hdr[headerSize+i*dirEntry:]
		e[0] = byte(d.kind)
		if d.hasNulls {
			e[1] = flagHasNulls
		}
		putU64(e[8:], d.dataOff)
		putU64(e[16:], d.dataLen)
		putU64(e[24:], d.auxOff)
		putU64(e[32:], d.auxLen)
		putU64(e[40:], d.nullOff)
		putU64(e[48:], d.nullLen)
	}
	if _, err := cw.Write(hdr); err != nil {
		return 0, err
	}
	rows := sd.Rows
	for i := range sd.Cols {
		c := &sd.Cols[i]
		d := &lay.dirs[i]
		if err := cw.padTo(d.dataOff); err != nil {
			return 0, err
		}
		switch c.Type {
		case TypeInt:
			if err := writeWords(cw, wordBytes(c.Ints), d.dataLen); err != nil {
				return 0, err
			}
		case TypeFloat:
			if err := writeWords(cw, wordBytes(c.Floats), d.dataLen); err != nil {
				return 0, err
			}
		case TypeBool:
			if err := writeWords(cw, wordBytes(c.Bools), d.dataLen); err != nil {
				return 0, err
			}
		case TypeTime:
			secs := make([]int64, rows)
			nsecs := make([]uint32, rows)
			for j, t := range c.Times {
				secs[j] = t.Unix()
				nsecs[j] = uint32(t.Nanosecond())
			}
			if err := writeWords(cw, wordBytes(secs), d.dataLen); err != nil {
				return 0, err
			}
			if err := cw.padTo(d.auxOff); err != nil {
				return 0, err
			}
			if err := writeWords(cw, wordBytes(nsecs), d.auxLen); err != nil {
				return 0, err
			}
		case TypeString:
			offs := make([]uint64, rows+1)
			var cur uint64
			for j, s := range c.Strs {
				offs[j] = cur
				cur += uint64(len(s))
			}
			offs[rows] = cur
			if err := writeWords(cw, wordBytes(offs), d.dataLen); err != nil {
				return 0, err
			}
			if err := cw.padTo(d.auxOff); err != nil {
				return 0, err
			}
			for _, s := range c.Strs {
				if _, err := io.WriteString(cw, s); err != nil {
					return 0, err
				}
			}
		}
		if d.nullLen > 0 {
			if err := cw.padTo(d.nullOff); err != nil {
				return 0, err
			}
			bitmap := make([]byte, d.nullLen)
			for j, isNull := range c.Nulls {
				if isNull {
					bitmap[j/8] |= 1 << (j % 8)
				}
			}
			if err := writeWords(cw, bitmap, d.nullLen); err != nil {
				return 0, err
			}
		}
	}
	if err := cw.padTo(lay.size - footerSize); err != nil {
		return 0, err
	}
	footer := make([]byte, footerSize)
	putU32(footer, cw.crc)
	copy(footer[4:], segEndMagic)
	if _, err := cw.w.Write(footer); err != nil {
		return 0, err
	}
	return int64(lay.size), nil
}

// writeWords writes a block whose computed length is want; a nil slice
// (an all-zero column) writes zeros.
func writeWords(cw *crcWriter, b []byte, want uint64) error {
	if uint64(len(b)) > want {
		b = b[:want]
	}
	if _, err := cw.Write(b); err != nil {
		return err
	}
	return cw.padTo(cw.n + (want - uint64(len(b))))
}

// parseSegment validates a mapped (or fully read) segment file: magic,
// byte order, version, block bounds and alignment, and the CRC footer.
// It returns the parsed shape; the caller keeps m for materialization.
func parseSegment(m []byte) (*segMeta, error) {
	if len(m) < headerSize+footerSize {
		return nil, fmt.Errorf("store: segment file truncated (%d bytes)", len(m))
	}
	if string(m[:8]) != segMagic {
		return nil, fmt.Errorf("store: bad segment magic %q", m[:8])
	}
	if nativeU32(m[8:]) != segBOM {
		return nil, fmt.Errorf("store: segment written with foreign byte order")
	}
	if v := getU32(m[12:]); v != segVersion {
		return nil, fmt.Errorf("store: unsupported segment version %d (want %d)", v, segVersion)
	}
	if string(m[len(m)-8:]) != segEndMagic {
		return nil, fmt.Errorf("store: segment footer missing (torn seal)")
	}
	body := m[:len(m)-footerSize]
	wantCRC := getU32(m[len(m)-footerSize:])
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("store: segment CRC mismatch (got %08x, want %08x): torn or corrupt seal", got, wantCRC)
	}
	ncols := int(getU32(m[16:]))
	rows := getU64(m[20:])
	if rows > uint64(len(m)) {
		return nil, fmt.Errorf("store: segment claims %d rows in a %d-byte file", rows, len(m))
	}
	if headerSize+ncols*dirEntry > len(body) {
		return nil, fmt.Errorf("store: segment directory for %d columns exceeds file", ncols)
	}
	meta := &segMeta{rows: int(rows), dirs: make([]colDir, ncols)}
	check := func(off, length uint64, align bool) error {
		// Written so that no sum can wrap: off+length may exceed 2^64.
		// An empty block is bounded too, since materialize slices it.
		if n := uint64(len(body)); length > n || off > n-length {
			return fmt.Errorf("store: block of %d bytes at offset %d outside segment body", length, off)
		}
		if length == 0 {
			return nil
		}
		if align && off%8 != 0 {
			return fmt.Errorf("store: misaligned block at offset %d", off)
		}
		if off < uint64(headerSize+ncols*dirEntry) {
			return fmt.Errorf("store: block at offset %d overlaps the segment directory", off)
		}
		return nil
	}
	for i := 0; i < ncols; i++ {
		e := m[headerSize+i*dirEntry:]
		d := &meta.dirs[i]
		d.kind = ColumnType(e[0])
		d.hasNulls = e[1]&flagHasNulls != 0
		d.dataOff, d.dataLen = getU64(e[8:]), getU64(e[16:])
		d.auxOff, d.auxLen = getU64(e[24:]), getU64(e[32:])
		d.nullOff, d.nullLen = getU64(e[40:]), getU64(e[48:])
		var wantData, wantAux uint64
		switch d.kind {
		case TypeInt, TypeFloat:
			wantData = 8 * rows
		case TypeBool:
			wantData = rows
		case TypeTime:
			wantData, wantAux = 8*rows, 4*rows
		case TypeString:
			wantData = 8 * (rows + 1)
			wantAux = d.auxLen // blob length is data-dependent
		default:
			return nil, fmt.Errorf("store: column %d has invalid kind %d", i, d.kind)
		}
		if d.dataLen != wantData || (d.kind != TypeString && d.auxLen != wantAux) {
			return nil, fmt.Errorf("store: column %d block lengths disagree with row count", i)
		}
		if d.hasNulls && d.nullLen != (rows+7)/8 {
			return nil, fmt.Errorf("store: column %d validity bitmap has wrong length", i)
		}
		if err := check(d.dataOff, d.dataLen, true); err != nil {
			return nil, err
		}
		if err := check(d.auxOff, d.auxLen, d.kind == TypeTime); err != nil {
			return nil, err
		}
		if err := check(d.nullOff, d.nullLen, false); err != nil {
			return nil, err
		}
		if d.kind == TypeString && rows > 0 {
			offs := viewSlice[uint64](m, d.dataOff, rows+1)
			var prev uint64
			for _, o := range offs {
				if o < prev || o > d.auxLen {
					return nil, fmt.Errorf("store: column %d string offsets out of order or out of range", i)
				}
				prev = o
			}
		}
	}
	return meta, nil
}

// viewSlice reinterprets m[off:] as count elements of T without
// copying. Callers must have bounds- and alignment-checked via
// parseSegment first.
func viewSlice[T any](m []byte, off, count uint64) []T {
	if count == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&m[off])), count)
}

// materialize builds the readable view of a parsed segment. Numeric
// and bool vectors are zero-copy views of the mapping; string bytes
// are copied onto the heap (a string read from a segment can escape
// into query results and caches, so it must never alias pages that a
// later munmap could invalidate); times and validity vectors are
// decoded onto the heap. keep is stored on the view so the mapping's
// owner stays reachable — and therefore mapped — for as long as any
// reader holds the view.
func materialize(m []byte, meta *segMeta, keep any) (*SegmentData, int64) {
	rows := uint64(meta.rows)
	sd := &SegmentData{Rows: meta.rows, Cols: make([]Column, len(meta.dirs)), keep: keep}
	var heap int64
	for i, d := range meta.dirs {
		c := &sd.Cols[i]
		c.Type = d.kind
		switch d.kind {
		case TypeInt:
			c.Ints = viewSlice[int64](m, d.dataOff, rows)
		case TypeFloat:
			c.Floats = viewSlice[float64](m, d.dataOff, rows)
		case TypeBool:
			c.Bools = viewSlice[bool](m, d.dataOff, rows)
		case TypeTime:
			secs := viewSlice[int64](m, d.dataOff, rows)
			nsecs := viewSlice[uint32](m, d.auxOff, rows)
			times := make([]time.Time, rows)
			for j := range times {
				times[j] = time.Unix(secs[j], int64(nsecs[j])).UTC()
			}
			c.Times = times
			heap += int64(rows) * 24
		case TypeString:
			offs := viewSlice[uint64](m, d.dataOff, rows+1)
			blob := m[d.auxOff : d.auxOff+d.auxLen]
			strs := make([]string, rows)
			for j := range strs {
				strs[j] = string(blob[offs[j]:offs[j+1]])
			}
			c.Strs = strs
			heap += int64(rows)*16 + int64(d.auxLen)
		}
		nulls := make([]bool, rows)
		if d.hasNulls {
			bitmap := m[d.nullOff : d.nullOff+d.nullLen]
			for j := uint64(0); j < rows; j++ {
				nulls[j] = bitmap[j/8]&(1<<(j%8)) != 0
			}
		}
		c.Nulls = nulls
		heap += int64(rows)
	}
	return sd, heap
}
