// Package obs is the observability substrate for the whole system: an
// atomic-based metrics registry rendered in Prometheus text exposition
// format, a lightweight context-propagated span/trace facility with an
// in-memory ring buffer, and slog-based structured logging configured
// per component. Every layer of the federation pipeline (warehouse,
// replicate, core, aggregate, ingest, rest) reports into it, and the
// REST layer exposes it as GET /metrics, /healthz and /debug/traces.
//
// The package is stdlib-only and allocation-free on the hot paths: a
// Counter increment is one atomic add, a Histogram observation is a
// small bounds scan plus three atomics. Instrumentation can be globally
// disabled with SetEnabled(false); BenchmarkObsOverhead and
// BenchmarkTelemetryOverhead in internal/rest toggle it to measure its
// own cost.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled globally gates metric mutation and span recording. Reads are
// a single atomic load, so leaving instrumentation in the hot path is
// nearly free even when disabled.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all instrumentation on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation is active.
func Enabled() bool { return enabled.Load() }

// DefBuckets are the default latency histogram bounds, in seconds,
// spanning 100µs to 10s — wide enough for both in-memory warehouse
// operations and cross-network replication round trips.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets
// (Prometheus "le" semantics: bucket i counts observations <=
// bounds[i]; an implicit +Inf bucket catches the rest).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric family types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a metric family.
type series struct {
	values []string // label values, same order as family.labels
	m      any      // *Counter, *Gauge or *Histogram
}

// family is all series of one metric name.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

// seriesKey joins label values with an unprintable separator.
func seriesKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s.m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.series[key]; s != nil {
		return s.m
	}
	var m any
	switch f.typ {
	case typeCounter:
		m = &Counter{}
	case typeGauge:
		m = &Gauge{}
	case typeHistogram:
		m = &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}
	f.series[key] = &series{values: append([]string(nil), values...), m: m}
	return m
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Hot paths should resolve once and reuse the handle.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// Registry holds metric families and renders them as Prometheus text.
// Registration is idempotent: asking for an already-registered name
// with the same type and labels returns the existing metric, so
// multiple instances in one process share families safely.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// Default is the process-wide registry every package reports into.
var Default = NewRegistry()

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		typ:     typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, typeCounter, nil, nil).get(nil).(*Counter)
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, typeGauge, nil, nil).get(nil).(*Gauge)
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (must be sorted ascending; nil uses
// DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.family(name, help, typeHistogram, nil, buckets).get(nil).(*Histogram)
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.family(name, help, typeHistogram, labels, buckets)}
}

// snapshotFamilies returns families sorted by name and, per family,
// series sorted by label values — the deterministic render order.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
