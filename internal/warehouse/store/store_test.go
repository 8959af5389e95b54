package store

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// sampleSegment exercises every column kind, NULLs, empty strings,
// the earliest time a vector holds, and sub-second precision.
func sampleSegment(rows int) *SegmentData {
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	bools := make([]bool, rows)
	times := make([]time.Time, rows)
	nulls := make([]bool, rows)
	for i := 0; i < rows; i++ {
		ints[i] = int64(i)*7919 - 1000
		floats[i] = float64(i) * 0.25
		switch i % 4 {
		case 0:
			strs[i] = ""
		case 1:
			strs[i] = "cluster-a"
		default:
			strs[i] = string(rune('a'+i%26)) + "-node/≠"
		}
		bools[i] = i%3 == 0
		if i%5 == 0 {
			times[i] = time.Unix(0, math.MinInt64)
		} else {
			times[i] = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 90 * time.Minute).Add(time.Duration(i%7) * time.Nanosecond)
		}
		nulls[i] = i%6 == 5
	}
	strCol, timeCol := ColumnOf(strs), ColumnOf(times)
	strCol.Nulls, timeCol.Nulls = append([]bool(nil), nulls...), append([]bool(nil), nulls...)
	return NewSegmentData(rows, []Column{ColumnOf(ints), ColumnOf(floats), strCol, ColumnOf(bools), timeCol})
}

// equalViews compares two segment views cell by cell.
func equalViews(t *testing.T, want, got *SegmentData) {
	t.Helper()
	if want.Rows != got.Rows || len(want.Cols) != len(got.Cols) {
		t.Fatalf("shape mismatch: want %dx%d, got %dx%d", want.Rows, len(want.Cols), got.Rows, len(got.Cols))
	}
	for c := range want.Cols {
		w, g := &want.Cols[c], &got.Cols[c]
		if w.Type != g.Type {
			t.Fatalf("col %d kind %d != %d", c, w.Type, g.Type)
		}
		for i := 0; i < want.Rows; i++ {
			wn := len(w.Nulls) > 0 && w.Nulls[i]
			gn := len(g.Nulls) > 0 && g.Nulls[i]
			if wn != gn {
				t.Fatalf("col %d row %d null %v != %v", c, i, wn, gn)
			}
			switch w.Type {
			case TypeInt:
				if w.Ints[i] != g.Ints[i] {
					t.Fatalf("col %d row %d int %d != %d", c, i, w.Ints[i], g.Ints[i])
				}
			case TypeFloat:
				if w.Floats[i] != g.Floats[i] {
					t.Fatalf("col %d row %d float %v != %v", c, i, w.Floats[i], g.Floats[i])
				}
			case TypeString:
				if w.Strings().At(i) != g.Strings().At(i) {
					t.Fatalf("col %d row %d str %q != %q", c, i, w.Strings().At(i), g.Strings().At(i))
				}
			case TypeBool:
				if w.Bools[i] != g.Bools[i] {
					t.Fatalf("col %d row %d bool %v != %v", c, i, w.Bools[i], g.Bools[i])
				}
			case TypeTime:
				if !w.Times().At(i).Equal(g.Times().At(i)) {
					t.Fatalf("col %d row %d time %v != %v", c, i, w.Times().At(i), g.Times().At(i))
				}
			}
		}
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleSegment(337)
	h, err := d.Seal("schema", "fact_job", sampleSegment(337))
	if err != nil {
		t.Fatal(err)
	}
	dh := h.(*diskHandle)
	if dh.rows != 337 || h.HeapBacked() {
		t.Fatalf("rows=%d heap=%v", dh.rows, h.HeapBacked())
	}
	if h.Peek() != nil {
		t.Fatal("segment should be cold right after seal")
	}
	equalViews(t, want, h.View())
	if h.Peek() == nil {
		t.Fatal("View should leave the segment materialized")
	}
	// A second View returns the same materialized object.
	if h.View() != h.Peek() {
		t.Fatal("warm View must not rebuild")
	}
	d.mu.Lock()
	segs, bytes := len(d.segs), d.bytes
	d.mu.Unlock()
	if segs != 1 || bytes != dh.bytes || d.resident.Load() <= 0 {
		t.Fatalf("segments=%d bytes=%d resident=%d (segment bytes=%d)", segs, bytes, d.resident.Load(), dh.bytes)
	}
}

func TestMemRoundTrip(t *testing.T) {
	m := NewMem()
	want := sampleSegment(64)
	h, err := m.Seal("s", "t", sampleSegment(64))
	if err != nil {
		t.Fatal(err)
	}
	if !h.HeapBacked() || h.View() != h.Peek() {
		t.Fatal("mem segments are always-resident heap data")
	}
	equalViews(t, want, h.View())
	m.Drop(h)
	if m.segments != 0 || m.bytes != 0 {
		t.Fatalf("after drop: segments=%d bytes=%d", m.segments, m.bytes)
	}
}

// TestMemCountsSharedDictionaryOnce seals two segments of one table
// whose string columns share a dictionary, as a table's sealed tail
// and the tail after it do: the backend holds both segments' codes and
// that dictionary once. Once the table has dropped both, a seal charges
// its dictionary afresh.
func TestMemCountsSharedDictionaryOnce(t *testing.T) {
	var col Column
	col.Type = TypeString
	var ix Index
	codes := func(values ...string) []uint32 {
		start := len(col.Codes)
		for _, s := range values {
			col.Codes = append(col.Codes, col.Intern(&ix, s))
		}
		return col.Codes[start:]
	}
	seal := func(m *Mem, table string, codes []uint32) Handle {
		t.Helper()
		seg := Column{Type: TypeString, Codes: codes, Dict: col.Dict}
		h, err := m.Seal("s", table, NewSegmentData(len(codes), []Column{seg}))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	m := NewMem()
	first := seal(m, "t", codes("alice", "bob", "alice"))
	second := seal(m, "t", codes("carol", "bob", "dave", "erin"))
	const rows = 7
	want := (4+1)*int64(rows) + dictBytes(col.Dict) // codes and nulls, then the dictionary
	if m.bytes != want {
		t.Fatalf("two segments sharing a dictionary: %d bytes, want %d", m.bytes, want)
	}
	other := seal(m, "u", col.Codes[:2])
	if got := m.bytes - want; got != 5*2+dictBytes(col.Dict) {
		t.Fatalf("another table's segment: %d bytes, want its own charge for the dictionary", got)
	}
	m.Drop(other)
	m.Drop(first)
	m.Drop(second)
	if m.bytes != 0 {
		t.Fatalf("after drops: %d bytes", m.bytes)
	}
	col, ix = Column{Type: TypeString}, Index{}
	h := seal(m, "t", codes("zed"))
	if want := int64(5) + dictBytes(col.Dict); m.bytes != want {
		t.Fatalf("seal after the table dropped its segments: %d bytes, want %d", m.bytes, want)
	}
	m.Drop(h)
}

func TestDiskEviction(t *testing.T) {
	// Budget forces all but roughly one materialized view out.
	d, err := OpenDisk(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var hs []Handle
	for i := 0; i < 4; i++ {
		h, err := d.Seal("s", "t", sampleSegment(200))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		h.View()
	}
	cold := 0
	for _, h := range hs[:3] {
		if h.Peek() == nil {
			cold++
		}
	}
	if cold != 3 {
		t.Fatalf("want the 3 least-recently-used views evicted, got %d cold", cold)
	}
	if hs[3].Peek() == nil {
		t.Fatal("most recent view must survive eviction")
	}
	// Evicted segments transparently re-materialize, identically.
	equalViews(t, sampleSegment(200), hs[0].View())
}

// TestDiskConcurrentViewsUnderEviction: lock-free readers materialize
// and evict one another's views at once. A view's cost is written with
// the view, so the eviction that drops it reads the cost under the
// same lock (the race detector checks), and the resident total ends
// where the views still resident put it.
func TestDiskConcurrentViewsUnderEviction(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var hs []*diskHandle
	for i := 0; i < 4; i++ {
		h, err := d.Seal("s", "t", sampleSegment(50))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h.(*diskHandle))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				hs[(i+g)%len(hs)].View()
			}
		}()
	}
	wg.Wait()
	var resident int64
	for _, h := range hs {
		if h.Peek() != nil {
			resident += h.cost
		}
	}
	if got := d.resident.Load(); got != resident {
		t.Fatalf("resident bytes %d, the resident views cost %d", got, resident)
	}
	d.Close()
	if got := d.resident.Load(); got != 0 {
		t.Fatalf("resident bytes %d after Close", got)
	}
}

func TestDiskDropUnlinksAndKeepsReaders(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Seal("s", "t", sampleSegment(100))
	if err != nil {
		t.Fatal(err)
	}
	v := h.View()
	d.Drop(h)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(left) != 0 {
		t.Fatalf("drop left files: %v", left)
	}
	// The in-flight view still reads correctly after the unlink.
	equalViews(t, sampleSegment(100), v)
	if len(d.segs) != 0 || d.bytes != 0 {
		t.Fatalf("after drop: segments=%d bytes=%d", len(d.segs), d.bytes)
	}
}

func TestTornSegmentDetectedAndCleaned(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal("s", "torn", sampleSegment(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal("s", "intact", sampleSegment(50)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(files) != 2 {
		t.Fatalf("want 2 segment files, got %v", files)
	}
	// Simulate a crash mid-seal: chop the first file's tail off, taking
	// the CRC footer with it.
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(files[0]); err == nil {
		t.Fatal("VerifyFile must reject a torn segment")
	}
	if err := VerifyFile(files[1]); err != nil {
		t.Fatalf("intact file failed verify: %v", err)
	}
	// A fresh open (the post-crash process) cleans both: the torn file
	// because its CRC fails, the intact one because segment state is
	// always rebuilt from the WAL/snapshot.
	tornBefore := mTornSegments.Value()
	staleBefore := mStaleSegments.Value()
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(left) != 0 {
		t.Fatalf("open left files behind: %v", left)
	}
	if got := mTornSegments.Value() - tornBefore; got != 1 {
		t.Fatalf("torn counter advanced by %d, want 1", got)
	}
	if got := mStaleSegments.Value() - staleBefore; got != 1 {
		t.Fatalf("stale counter advanced by %d, want 1", got)
	}
	if _, err := d2.Seal("s", "fresh", sampleSegment(10)); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptPayloadFailsCRC(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal("s", "t", sampleSegment(100)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(files[0]); err == nil {
		t.Fatal("bit-flipped payload must fail the CRC footer check")
	}
}

func TestSealRejectsEmpty(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal("s", "t", NewSegmentData(0, nil)); err == nil {
		t.Fatal("empty seal must be rejected")
	}
	if _, err := NewMem().Seal("s", "t", NewSegmentData(0, nil)); err == nil {
		t.Fatal("empty seal must be rejected")
	}
}

func TestFormatLayoutIsAligned(t *testing.T) {
	sd := sampleSegment(13) // odd row count exercises padding
	lay, err := planLayout(sd)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range lay.dirs {
		if d.dataOff%8 != 0 {
			t.Fatalf("col %d data block misaligned at %d", i, d.dataOff)
		}
		if d.kind == TypeTime && d.auxOff%8 != 0 {
			t.Fatalf("col %d nsec block misaligned at %d", i, d.auxOff)
		}
	}
	if !reflect.DeepEqual(lay.dirs[0].kind, TypeInt) {
		t.Fatal("layout must preserve column order")
	}
}

// segmentWithDataOff seals sd in memory, points its first column's data
// block at off, and re-signs the file, so only the block bounds are wrong.
func segmentWithDataOff(t *testing.T, sd *SegmentData, off uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeSegment(&buf, sd); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	putU64(b[headerSize+8:], off)
	putU32(b[len(b)-footerSize:], crc32.Checksum(b[:len(b)-footerSize], castagnoli))
	return b
}

// TestWrappingBlockOffsetIsTorn: a leftover segment whose block offset
// is so large that offset+length wraps past 2^64 is a torn file like any
// other — OpenDisk counts it and removes it instead of accepting it or
// panicking while it verifies it.
func TestWrappingBlockOffsetIsTorn(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{
		"00000001-s-int.seg": segmentWithDataOff(t, NewSegmentData(1, []Column{ColumnOf([]int64{7})}), 1<<64-8),
		"00000002-s-str.seg": segmentWithDataOff(t, NewSegmentData(1, []Column{ColumnOf([]string{"abc"})}), 1<<64-16),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tornBefore := mTornSegments.Value()
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if got := mTornSegments.Value() - tornBefore; got != 2 {
		t.Fatalf("torn counter advanced by %d, want 2", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(left) != 0 {
		t.Fatalf("open left files behind: %v", left)
	}
}
