package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xdmodfed/internal/obs"
)

var storeLog = obs.Logger("warehouse.store")

// Disk seals segments to an mmap-backed on-disk format. A sealed
// segment costs address space (the read-only mapping) but its resident
// cost is only the materialized view — heap-decoded strings, times,
// and validity vectors — which the backend evicts, least-recently-used
// first, whenever the total exceeds MaxResidentBytes. Numeric columns
// are served zero-copy straight from the mapping, so their pages are
// file-backed and the kernel reclaims them under pressure without our
// help.
//
// Lifetime model: a mapping is torn down only by a finalizer, once the
// handle is unreachable — i.e. after Drop removed it from the registry
// AND every snapshot that referenced it has been collected. Every
// materialized view pins its handle (SegmentData.keep), so no reader
// can observe an unmapped page. Drop unlinks the file immediately; the
// mapping stays valid until that finalizer runs.
type Disk struct {
	dir         string
	maxResident int64 // <= 0 means unlimited

	resident atomic.Int64
	clock    atomic.Int64
	seq      atomic.Uint64

	mu     sync.Mutex
	segs   map[uint64]*diskHandle
	bytes  int64
	closed bool
}

// DefaultMaxResidentBytes bounds materialized-view heap when the
// config leaves max_resident_bytes at zero.
const DefaultMaxResidentBytes = 256 << 20

func errEmptySegment(path string) error {
	return fmt.Errorf("store: segment file %s is empty", path)
}

// OpenDisk opens (creating if needed) a disk backend rooted at dir.
// Any *.seg files left by a previous process are discarded: segments
// are rebuilt from the WAL/snapshot, which is the durability source.
// Files whose CRC footer does not verify are counted as torn seals —
// the crash-mid-seal signature — and intact leftovers as stale.
func OpenDisk(dir string, maxResidentBytes int64) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk backend requires a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if maxResidentBytes == 0 {
		maxResidentBytes = DefaultMaxResidentBytes
	}
	d := &Disk{dir: dir, maxResident: maxResidentBytes, segs: make(map[uint64]*diskHandle)}
	torn, stale := 0, 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if err := VerifyFile(path); err != nil {
			torn++
			mTornSegments.Inc()
			storeLog.Warn("discarding torn segment (crash mid-seal)", "file", e.Name(), "err", err)
		} else {
			stale++
			mStaleSegments.Inc()
		}
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("store: cannot clean %s: %w", path, err)
		}
	}
	if torn+stale > 0 {
		storeLog.Info("cleaned segment directory; state will re-seal from WAL/snapshot",
			"dir", dir, "stale", stale, "torn", torn)
	}
	return d, nil
}

// VerifyFile checks that path holds a structurally valid segment with
// an intact CRC32C footer. It is the torn-seal detector used on open
// and exported for crash-recovery tests.
func VerifyFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = parseSegment(b)
	return err
}

func (d *Disk) Name() string { return "disk" }

type diskHandle struct {
	d     *Disk
	id    uint64
	path  string
	rows  int
	bytes int64 // file size

	m    []byte // the mapping; unmapped only by the finalizer
	meta *segMeta

	mu      sync.Mutex // serializes materialization
	view    atomic.Pointer[SegmentData]
	cost    int64 // heap cost of the current view (guarded by mu)
	lastUse atomic.Int64
}

func (h *diskHandle) HeapBacked() bool { return false }

func (h *diskHandle) Peek() *SegmentData { return h.view.Load() }

func (h *diskHandle) View() *SegmentData {
	h.lastUse.Store(h.d.clock.Add(1))
	if v := h.view.Load(); v != nil {
		return v
	}
	h.mu.Lock()
	v := h.view.Load()
	if v == nil {
		var cost int64
		v, cost = materialize(h.m, h.meta, h)
		h.cost = cost
		h.view.Store(v)
		h.d.resident.Add(cost)
		mResidentBytes.Add(float64(cost))
		mLoads.Inc()
	}
	h.mu.Unlock()
	h.d.evict(h)
	return v
}

// release drops the handle's materialized view, reporting the heap cost
// it was charged and whether there was one. It holds mu, because a
// reader materializing the segment again writes the view and its cost
// together under mu.
func (h *diskHandle) release() (cost int64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.view.Swap(nil) == nil {
		return 0, false
	}
	return h.cost, true
}

func (d *Disk) Seal(schema, table string, sd *SegmentData) (Handle, error) {
	if sd.Rows <= 0 {
		return nil, fmt.Errorf("store: refusing to seal empty segment for %s.%s", schema, table)
	}
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("store: disk backend is closed")
	}
	id := d.seq.Add(1)
	name := fmt.Sprintf("%08d-%s-%s.seg", id, sanitize(schema), sanitize(table))
	path := filepath.Join(d.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	size, err := writeSegment(bw, sd)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("store: seal %s.%s: %w", schema, table, err)
	}
	m, err := mapFile(path)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("store: map %s: %w", path, err)
	}
	meta, err := parseSegment(m)
	if err != nil {
		unmapFile(m)
		os.Remove(path)
		return nil, fmt.Errorf("store: verify %s: %w", path, err)
	}
	h := &diskHandle{d: d, id: id, path: path, rows: sd.Rows, bytes: size, m: m, meta: meta}
	runtime.SetFinalizer(h, func(h *diskHandle) { unmapFile(h.m) })
	d.mu.Lock()
	d.segs[id] = h
	d.bytes += size
	d.mu.Unlock()
	mSegments.Add(1)
	mSegmentBytes.Add(float64(size))
	mSeals.With("disk").Inc()
	return h, nil
}

func (d *Disk) Drop(h Handle) {
	dh, ok := h.(*diskHandle)
	if !ok {
		return
	}
	d.mu.Lock()
	if _, live := d.segs[dh.id]; !live {
		d.mu.Unlock()
		return
	}
	delete(d.segs, dh.id)
	d.bytes -= dh.bytes
	d.mu.Unlock()
	// Reclaim disk space now; the mapping (and any in-flight readers)
	// survive the unlink, and the finalizer unmaps once the handle is
	// unreachable.
	os.Remove(dh.path)
	if cost, ok := dh.release(); ok {
		d.resident.Add(-cost)
		mResidentBytes.Add(-float64(cost))
	}
	mSegments.Add(-1)
	mSegmentBytes.Add(-float64(dh.bytes))
	mDrops.Inc()
}

// evict drops materialized views, least recently used first, until the
// resident total fits the budget. The just-used handle is exempt so a
// single oversized segment cannot thrash itself. Dropped views remain
// valid for readers that already hold them; they become garbage once
// those readers finish.
func (d *Disk) evict(keep *diskHandle) {
	if d.maxResident <= 0 || d.resident.Load() <= d.maxResident {
		return
	}
	d.mu.Lock()
	type cand struct {
		h    *diskHandle
		used int64
	}
	var cands []cand
	for _, h := range d.segs {
		if h != keep && h.view.Load() != nil {
			cands = append(cands, cand{h, h.lastUse.Load()})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })
	for _, c := range cands {
		if d.resident.Load() <= d.maxResident {
			break
		}
		if cost, ok := c.h.release(); ok {
			d.resident.Add(-cost)
			mResidentBytes.Add(-float64(cost))
			mEvictions.Inc()
		}
	}
	d.mu.Unlock()
}

// Close marks the backend closed and releases its remaining
// accounting from the global gauges. Existing handles stay readable
// (the warehouse may still be draining — mappings are unmapped by the
// handles' finalizers); files are left for the next open to clean.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	segs := len(d.segs)
	bytes := d.bytes
	var resident int64
	for _, h := range d.segs {
		if cost, ok := h.release(); ok {
			resident += cost
		}
	}
	d.segs = map[uint64]*diskHandle{}
	d.bytes = 0
	d.mu.Unlock()
	d.resident.Add(-resident)
	mSegments.Add(-float64(segs))
	mSegmentBytes.Add(-float64(bytes))
	mResidentBytes.Add(-float64(resident))
	return nil
}

// sanitize maps a schema or table name to a filename-safe token.
func sanitize(s string) string {
	if s == "" {
		return "x"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) > 48 {
		b = b[:48]
	}
	return string(b)
}
