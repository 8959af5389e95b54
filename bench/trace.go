package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Stage names are ROADMAP's pipeline vocabulary, so a later in-program
// tracing change can reuse them: a stepped batch is the sequence
// shred, ingest.commit, binlog.read, wire, hub.apply, rebuild,
// query.scan, render. (ROADMAP's "fold" happens inside ingest.commit
// and hub.apply, where the harness cannot put a span; it is measured
// in isolation on the same rows and recorded as an isolated child.)
var pipelineStages = []string{"shred", "ingest.commit", "binlog.read", "wire", "hub.apply", "rebuild", "query.scan", "render"}

// span is one timed call from the harness into a layer's public
// function. Spans of one batch share its number; Parent is the id of
// the span that caused this one (0 for a batch's own span). An
// isolated span repeats a step the system performs inside its parent
// on scratch state, so its interval lies outside the parent's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Batch    int    `json:"batch"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Count    int    `json:"count"` // units of work: facts, events, bins or requests
	Allocs   uint64 `json:"allocs"`
	Bytes    uint64 `json:"alloc_bytes"`
	Isolated bool   `json:"isolated,omitempty"`
}

// stageStat accumulates every call recorded under one key.
type stageStat struct {
	ns, allocs float64
	count      int
	calls      []callStat
}

type callStat struct {
	ns    float64
	count int
}

func (s *stageStat) nsPer() float64     { return ratio(s.ns, float64(s.count)) }
func (s *stageStat) allocsPer() float64 { return ratio(s.allocs, float64(s.count)) }

func (s *stageStat) durs() []float64 {
	out := make([]float64, len(s.calls))
	for i, c := range s.calls {
		out[i] = c.ns
	}
	return out
}

// nsPerAt is the per-unit cost of the call at position pos in [0,1]
// of the sequence, to show how a cost grows over a run.
func (s *stageStat) nsPerAt(pos float64) float64 {
	if len(s.calls) == 0 {
		return 0
	}
	c := s.calls[int(pos*float64(len(s.calls)-1))]
	return ratio(c.ns, float64(c.count))
}

// tracer records spans in memory; write puts them on disk when the run
// ends. With on false, call only runs the function: every second
// stepped batch runs that way, and the ratio between the two kinds of
// batch is the tracing overhead.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	rows   []map[string]int64 // one per traced batch: stage -> ns, plus "batch" and "batch_ns"
	stats  map[string]*stageStat
	counts map[string]int // plain counters: rejected lines, rows scanned

	tracedNS, untracedNS []float64 // batch wall times
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: map[string]*stageStat{}, counts: map[string]int{}}
}

func (t *tracer) stat(key string) *stageStat {
	s := t.stats[key]
	if s == nil {
		s = &stageStat{}
		t.stats[key] = s
	}
	return s
}

// call runs fn inside a span named name under parent and accumulates
// it under key. fn gets the span's id, for its own calls to name as
// their parent, and returns its units of work; call returns the id.
func (t *tracer) call(batch, parent int, name, key string, isolated bool, fn func(id int) int) int {
	if !t.on {
		fn(0)
		return 0
	}
	// The span is appended before fn runs so that children get larger
	// ids; its measurements are filled in afterwards.
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := fn(id)
	end := time.Now()
	runtime.ReadMemStats(&after)
	sp := span{
		ID: id, Parent: parent, Batch: batch, Name: name, Count: n, Isolated: isolated,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Allocs: after.Mallocs - before.Mallocs, Bytes: after.TotalAlloc - before.TotalAlloc,
	}
	t.spans[id-1] = sp
	s := t.stat(key)
	ns := float64(sp.End - sp.Start)
	s.ns += ns
	s.allocs += float64(sp.Allocs)
	s.count += n
	s.calls = append(s.calls, callStat{ns, n})
	return sp.ID
}

// batch runs one stepped batch: steps gets the batch's root span id.
// A traced batch gets a row of per-stage durations, and afterwards —
// outside the batch's wall time — isolated runs, still traced.
func (t *tracer) batch(k int, traced bool, steps, isolated func(root int)) {
	t.on = traced
	first := len(t.spans)
	start := time.Now()
	root := 0
	if traced {
		// The root span is appended first so its id is known to the
		// children; its end is filled in below.
		t.spans = append(t.spans, span{ID: first + 1, Batch: k, Name: "batch", Start: start.Sub(t.t0).Nanoseconds()})
		root = first + 1
	}
	steps(root)
	wall := time.Since(start)
	t.on = false
	if !traced {
		t.untracedNS = append(t.untracedNS, float64(wall.Nanoseconds()))
		return
	}
	if isolated != nil {
		t.on = true
		isolated(root)
		t.on = false
	}
	t.tracedNS = append(t.tracedNS, float64(wall.Nanoseconds()))
	t.spans[first].End = t.spans[first].Start + wall.Nanoseconds()
	row := map[string]int64{"batch": int64(k), "batch_ns": wall.Nanoseconds()}
	for _, sp := range t.spans[first+1:] {
		if sp.Parent == root {
			row[sp.Name] += sp.End - sp.Start
		}
	}
	t.rows = append(t.rows, row)
}

// traceFile is what write puts on disk.
type traceFile struct {
	Host     Host               `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Stages   []string           `json:"stages"`
	Rows     []map[string]int64 `json:"rows"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir string, host Host, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Host: host, Workload: workload, Seed: seed, Stages: pipelineStages, Rows: t.rows, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
