package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Lightweight pipeline tracing: StartSpan opens a span whose ID
// propagates through the context, so nested stages (REST request →
// hub apply → aggregation) link up into one trace. Finished spans land
// in a fixed-size ring buffer served by GET /debug/traces. Spans cross
// process boundaries through a W3C-style traceparent wire form (see
// tracectx.go): a remote parent installed with ContextWithTraceParent
// makes the next StartSpan a child of the remote span, so a satellite
// ingest, its replication send, and the hub apply share one TraceID —
// still with zero dependencies.

// Span is one timed operation. Exported fields are the JSON shape
// served by /debug/traces.
type Span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`

	tracer *Tracer
}

// Tracer keeps the most recent completed spans in a ring buffer.
type Tracer struct {
	mu  sync.Mutex
	buf []Span
	n   int // total spans ever recorded
}

// NewTracer creates a tracer retaining up to capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Span, capacity)}
}

// DefaultTraceCapacity is the span retention of DefaultTracer.
const DefaultTraceCapacity = 256

// DefaultTracer receives spans from StartSpan.
var DefaultTracer = NewTracer(DefaultTraceCapacity)

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.buf[t.n%len(t.buf)] = s
	t.n++
	t.mu.Unlock()
}

// Recent returns retained spans, newest first.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n > len(t.buf) {
		n = len(t.buf)
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(t.n-1-i)%len(t.buf)])
	}
	return out
}

// Filter returns retained spans, newest first, keeping those whose
// TraceID equals traceID (when non-empty) and whose Name contains
// nameSub (when non-empty), up to limit (0 = unlimited). It backs the
// ?trace_id=/?name=/?limit= parameters of GET /debug/traces, which let
// a federated trace be stitched from both processes' rings.
func (t *Tracer) Filter(traceID, nameSub string, limit int) []Span {
	var out []Span
	for _, s := range t.Recent() {
		if traceID != "" && s.TraceID != traceID {
			continue
		}
		if nameSub != "" && !strings.Contains(s.Name, nameSub) {
			continue
		}
		out = append(out, s)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Len returns how many spans have ever been recorded.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// span IDs: a per-process random seed XORed with a strictly increasing
// counter passed through an odd multiplier (a bijection over uint64),
// so IDs are unique within the process and unlikely to collide across
// processes.
var (
	idCounter atomic.Uint64
	idSeed    = func() uint64 {
		var b [8]byte
		rand.Read(b[:])
		return binary.LittleEndian.Uint64(b[:])
	}()
)

func newID() string {
	return strconv.FormatUint(idSeed^(idCounter.Add(1)*0x9e3779b97f4a7c15), 16)
}

type spanCtxKey struct{}

// StartSpan opens a span named name, linked to the span already in ctx
// (if any), and returns a context carrying the new span. End the span
// to record it. When instrumentation is disabled it returns a nil span
// whose methods are no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	s := &Span{Name: name, Start: time.Now(), SpanID: newID(), tracer: DefaultTracer}
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
	} else if rp, ok := ctx.Value(remoteCtxKey{}).(remoteParent); ok {
		// A traceparent arrived over the wire (HTTP header or a
		// replication frame): adopt its trace and parent under it.
		s.TraceID = rp.traceID
		s.ParentID = rp.spanID
	} else {
		s.TraceID = newID()
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SetAttr attaches a key/value attribute. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = value
}

// End records the span's duration and pushes it into the ring buffer.
// Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.DurationMS = float64(time.Since(s.Start)) / float64(time.Millisecond)
	s.tracer.record(*s)
}
