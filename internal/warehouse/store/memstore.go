package store

import (
	"fmt"
	"sync"
)

// Mem is the all-RAM backend: sealing adopts the payload's slices
// as-is and views are always resident. It preserves the warehouse's
// pre-tiering behavior exactly — same heap, zero copies — while
// letting every code path speak the segment interface.
type Mem struct {
	mu       sync.Mutex
	segments int
	bytes    int64
	dicts    map[string]*tableDicts // by schema.table
}

// tableDicts is what the live segments of one table have charged for
// its dictionaries. A table's segments share one dictionary per string
// column, each seal's a prefix of the next, so a seal charges only the
// entries beyond those the table's earlier seals charged and every
// dictionary is counted once. A table starts fresh dictionaries only
// after dropping all its segments, which is when this is forgotten.
type tableDicts struct {
	segments int
	charged  []int // by column: dictionary entries charged so far
}

// NewMem returns an in-memory segment backend.
func NewMem() *Mem { return &Mem{dicts: make(map[string]*tableDicts)} }

func (m *Mem) Name() string { return "memory" }

type memHandle struct {
	sd    *SegmentData
	table string // schema.table
	bytes int64
}

func (h *memHandle) View() *SegmentData { return h.sd }
func (h *memHandle) Peek() *SegmentData { return h.sd }
func (h *memHandle) HeapBacked() bool   { return true }

func (m *Mem) Seal(schema, table string, sd *SegmentData) (Handle, error) {
	if sd.Rows <= 0 {
		return nil, fmt.Errorf("store: refusing to seal empty segment for %s.%s", schema, table)
	}
	for i := range sd.Cols {
		if sd.Cols[i].Nulls == nil {
			sd.Cols[i].Nulls = make([]bool, sd.Rows)
		}
	}
	h := &memHandle{sd: sd, table: schema + "." + table, bytes: vectorBytes(sd)}
	m.mu.Lock()
	td := m.dicts[h.table]
	if td == nil {
		td = &tableDicts{charged: make([]int, len(sd.Cols))}
		m.dicts[h.table] = td
	}
	td.segments++
	for i := range sd.Cols {
		if dict := sd.Cols[i].Dict; i < len(td.charged) && len(dict) > td.charged[i] {
			h.bytes += dictBytes(dict[td.charged[i]:])
			td.charged[i] = len(dict)
		}
	}
	m.segments++
	m.bytes += h.bytes
	m.mu.Unlock()
	mSegments.Add(1)
	mSegmentBytes.Add(float64(h.bytes))
	mResidentBytes.Add(float64(h.bytes))
	mSeals.With("memory").Inc()
	return h, nil
}

func (m *Mem) Drop(h Handle) {
	mh, ok := h.(*memHandle)
	if !ok {
		return
	}
	m.mu.Lock()
	if td := m.dicts[mh.table]; td != nil {
		if td.segments--; td.segments == 0 {
			delete(m.dicts, mh.table)
		}
	}
	m.segments--
	m.bytes -= mh.bytes
	m.mu.Unlock()
	mSegments.Add(-1)
	mSegmentBytes.Add(-float64(mh.bytes))
	mResidentBytes.Add(-float64(mh.bytes))
	mDrops.Inc()
}

// Close releases the backend's remaining accounting from the global
// gauges. Scratch DBs (dump staging, backup restore) seal segments
// they never individually Drop; without this, every discarded scratch
// store would inflate the fleet-wide segment gauges forever.
func (m *Mem) Close() error {
	m.mu.Lock()
	segs, bytes := m.segments, m.bytes
	m.segments, m.bytes = 0, 0
	clear(m.dicts)
	m.mu.Unlock()
	mSegments.Add(-float64(segs))
	mSegmentBytes.Add(-float64(bytes))
	mResidentBytes.Add(-float64(bytes))
	return nil
}

// vectorBytes estimates the heap a segment's vectors hold, without the
// dictionaries they index.
func vectorBytes(sd *SegmentData) int64 {
	rows := int64(sd.Rows)
	var b int64
	for i := range sd.Cols {
		c := &sd.Cols[i]
		switch c.Type {
		case TypeInt, TypeFloat, TypeTime:
			b += 8 * rows
		case TypeBool:
			b += rows
		case TypeString:
			b += 4 * rows
		}
		b += rows // nulls vector
	}
	return b
}

// dictBytes is the heap a dictionary holds: a string header and the
// bytes of each entry.
func dictBytes(dict []string) int64 {
	b := 16 * int64(len(dict))
	for _, s := range dict {
		b += int64(len(s))
	}
	return b
}
