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
}

// NewMem returns an in-memory segment backend.
func NewMem() *Mem { return &Mem{} }

func (m *Mem) Name() string { return "memory" }

type memHandle struct {
	sd    *SegmentData
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
	h := &memHandle{sd: sd, bytes: approxBytes(sd)}
	m.mu.Lock()
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
	m.mu.Unlock()
	mSegments.Add(-float64(segs))
	mSegmentBytes.Add(-float64(bytes))
	mResidentBytes.Add(-float64(bytes))
	return nil
}

// approxBytes estimates a segment's heap footprint: payload plus the
// per-element overhead of strings and times.
func approxBytes(sd *SegmentData) int64 {
	rows := int64(sd.Rows)
	var b int64
	for i := range sd.Cols {
		c := &sd.Cols[i]
		switch c.Kind {
		case KindInt, KindFloat:
			b += 8 * rows
		case KindBool:
			b += rows
		case KindTime:
			b += 24 * rows
		case KindString:
			b += 16 * rows
			for _, s := range c.Strs {
				b += int64(len(s))
			}
		}
		b += rows // nulls vector
	}
	return b
}
