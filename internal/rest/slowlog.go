package rest

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"xdmodfed/internal/obs"
)

// Query explain and the slow-query log: every chart query records its
// execution statistics (duration, rows scanned, cache outcome,
// snapshot epoch) into per-realm RED metrics and a bounded in-memory
// ring served at GET /debug/slowlog. The same statistics come back
// inline on GET /api/chart?explain=1.

var (
	mChartQueries = obs.Default.CounterVec("xdmodfed_chart_queries_total",
		"Chart queries served, by realm, cache outcome and status.",
		"realm", "cache", "status")
	mChartSeconds = obs.Default.HistogramVec("xdmodfed_chart_query_seconds",
		"Chart query latency, by realm.", nil, "realm")
	mChartRows = obs.Default.HistogramVec("xdmodfed_chart_query_rows",
		"Aggregate rows scanned per chart query, by realm.",
		[]float64{10, 100, 1000, 10000, 100000, 1000000}, "realm")
)

// DefaultSlowLogCapacity bounds the slow-query ring.
const DefaultSlowLogCapacity = 128

// QueryStat describes one executed chart query: what was asked, how it
// ran, and whether the cache answered it. It appears inline on
// ?explain=1 responses and in /debug/slowlog entries.
type QueryStat struct {
	Time    time.Time         `json:"time"`
	TraceID string            `json:"trace_id,omitempty"`
	Realm   string            `json:"realm"`
	Metric  string            `json:"metric"`
	GroupBy string            `json:"group_by,omitempty"`
	Period  string            `json:"period"`
	Start   int64             `json:"start,omitempty"`
	End     int64             `json:"end,omitempty"`
	Filters map[string]string `json:"filters,omitempty"`
	Rollup  string            `json:"rollup,omitempty"`
	Top     int               `json:"top,omitempty"`

	DurationMS  float64 `json:"duration_ms"`
	RowsScanned int     `json:"rows_scanned"`
	Epoch       uint64  `json:"epoch,omitempty"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	Error string `json:"error,omitempty"`
}

// slowLog is a bounded ring of the most recent QueryStat entries. It
// records every query, fast or failed; the newest
// DefaultSlowLogCapacity survive.
type slowLog struct {
	mu  sync.Mutex
	buf []QueryStat
	n   int // total recorded; buf[n % len(buf)] is the next slot
}

func newSlowLog() *slowLog {
	return &slowLog{buf: make([]QueryStat, DefaultSlowLogCapacity)}
}

// record keeps st.
func (l *slowLog) record(st QueryStat) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.n%len(l.buf)] = st
	l.n++
	l.mu.Unlock()
}

// recent returns retained entries, newest first; limit 0 = all.
func (l *slowLog) recent(limit int) []QueryStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.n
	if n > len(l.buf) {
		n = len(l.buf)
	}
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]QueryStat, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.buf[(l.n-1-i)%len(l.buf)])
	}
	return out
}

// observeQuery records one executed chart query into the RED metrics
// and the slow-query ring. Gated on the global observability switch so
// the disabled-path overhead is one atomic load.
func (s *Server) observeQuery(st QueryStat) {
	if !obs.Enabled() {
		return
	}
	status := "ok"
	if st.Error != "" {
		status = "error"
	}
	mChartQueries.With(st.Realm, st.Cache, status).Inc()
	mChartSeconds.With(st.Realm).Observe(st.DurationMS / 1000)
	mChartRows.With(st.Realm).Observe(float64(st.RowsScanned))
	s.slow.record(st)
}

// handleSlowlog serves the slow-query ring:
//
//	GET /debug/slowlog?limit=20
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, errBadLimit(v))
			return
		}
		limit = n
	}
	entries := s.slow.recent(limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  obs.Enabled(),
		"capacity": len(s.slow.buf),
		"count":    len(entries),
		"entries":  entries,
	})
}
