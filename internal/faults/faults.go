// Package faults is a seeded, deterministic fault-injection layer for
// robustness tests. Call sites name failpoints with string constants
// and ask a Registry whether to inject at that point; the Registry
// decides from a per-registry seeded RNG plus per-point configuration
// (probability, or every-Nth-call). A nil *Registry is always a no-op,
// so production code can thread one through unconditionally and pay a
// single nil check on the hot path.
//
// The package also provides wrappers that turn injection decisions
// into realistic partial failures: WrapConn wraps a net.Conn to drop
// or stall mid-frame, and WrapFile wraps a WAL file to short-write or
// fail fsync. Both preserve determinism: with the same seed, point
// configuration, and call sequence, the same calls fail.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Failpoint names used by the replication and durability layers. A
// registry accepts arbitrary names, but these are the points the
// production code actually consults.
const (
	// ConnReadDrop closes the connection during a Read, as if the
	// peer vanished mid-frame.
	ConnReadDrop = "conn.read.drop"
	// ConnWriteDrop writes roughly half the buffer and then closes
	// the connection, leaving a torn frame on the wire.
	ConnWriteDrop = "conn.write.drop"
	// ConnReadStall sleeps before a Read, simulating a stalled peer
	// or a congested WAN path.
	ConnReadStall = "conn.read.stall"
	// WALShortWrite persists only a prefix of the record and then
	// errors, leaving a torn tail for recovery to truncate.
	WALShortWrite = "wal.write.short"
	// WALSyncError fails the fsync without syncing, as if the disk
	// rejected the flush.
	WALSyncError = "wal.sync.err"
)

// InjectedError marks an error as fault-injected so tests can tell
// deliberate failures from real ones.
type InjectedError struct {
	Point string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected failure at %s", e.Point)
}

// IsInjected reports whether err (or anything it wraps) was produced
// by a failpoint.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*InjectedError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

type point struct {
	prob     float64 // inject with this probability per call
	every    uint64  // inject every Nth call (0 = disabled)
	calls    uint64
	injected uint64
}

// Registry decides, deterministically from a seed, which calls to a
// named failpoint fail. The zero value is unusable; construct with
// New. A nil *Registry never injects.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// New returns a Registry whose injection decisions derive from seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
	}
}

// Enable arms a failpoint with a per-call injection probability in
// [0, 1].
func (r *Registry) Enable(name string, prob float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.point(name).prob = prob
}

// EnableEvery arms a failpoint to inject on every nth call (n >= 1),
// counted from the next call. Deterministic regardless of seed.
func (r *Registry) EnableEvery(name string, n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.point(name).every = n
}

// Stall returns how long ConnReadStall injections sleep: 50ms.
func (r *Registry) Stall() time.Duration {
	if r == nil {
		return 0
	}
	return 50 * time.Millisecond
}

// point returns the named point, creating it disarmed if needed.
// Caller holds r.mu.
func (r *Registry) point(name string) *point {
	p := r.points[name]
	if p == nil {
		p = &point{}
		r.points[name] = p
	}
	return p
}

// Hit records a call to the named failpoint and reports whether to
// inject a fault there. Safe on a nil Registry (never injects).
func (r *Registry) Hit(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.point(name)
	p.calls++
	inject := false
	if p.every > 0 && p.calls%p.every == 0 {
		inject = true
	}
	if !inject && p.prob > 0 && r.rng.Float64() < p.prob {
		inject = true
	}
	if inject {
		p.injected++
	}
	return inject
}

// Stats returns how many times the named failpoint was consulted and
// how many of those calls injected a fault.
func (r *Registry) Stats(name string) (calls, injected uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.points[name]
	if p == nil {
		return 0, 0
	}
	return p.calls, p.injected
}

// Injected returns the total number of injections across all points.
func (r *Registry) Injected() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, p := range r.points {
		n += p.injected
	}
	return n
}

// faultConn wraps a net.Conn with the connection failpoints.
type faultConn struct {
	net.Conn
	reg *Registry
}

// WrapConn wraps c so reads and writes consult the connection
// failpoints. A nil registry returns c unchanged.
func WrapConn(c net.Conn, r *Registry) net.Conn {
	if r == nil {
		return c
	}
	return &faultConn{Conn: c, reg: r}
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.reg.Hit(ConnReadStall) {
		time.Sleep(c.reg.Stall())
	}
	if c.reg.Hit(ConnReadDrop) {
		c.Conn.Close()
		return 0, &InjectedError{Point: ConnReadDrop}
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.reg.Hit(ConnWriteDrop) {
		n := 0
		if len(p) > 1 {
			n, _ = c.Conn.Write(p[:len(p)/2])
		}
		c.Conn.Close()
		return n, &InjectedError{Point: ConnWriteDrop}
	}
	return c.Conn.Write(p)
}

// File is the slice of *os.File the WAL writer needs; WrapFile
// returns an implementation with the WAL failpoints applied.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type faultFile struct {
	f   File
	reg *Registry
}

// WrapFile wraps f so writes and syncs consult the WAL failpoints. A
// nil registry returns f unchanged.
func WrapFile(f File, r *Registry) File {
	if r == nil {
		return f
	}
	return &faultFile{f: f, reg: r}
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.reg.Hit(WALShortWrite) {
		n := 0
		if len(p) > 1 {
			n, _ = w.f.Write(p[:len(p)/2])
		}
		return n, &InjectedError{Point: WALShortWrite}
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if w.reg.Hit(WALSyncError) {
		return &InjectedError{Point: WALSyncError}
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error { return w.f.Close() }
