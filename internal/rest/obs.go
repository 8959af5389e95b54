package rest

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"xdmodfed/internal/admission"
	"xdmodfed/internal/obs"
)

// Observability endpoints and the HTTP middleware that feeds them:
// every route is wrapped with request counting, latency histograms and
// a span, and the server exposes GET /metrics (Prometheus text
// exposition), GET /healthz (liveness plus per-member replication
// freshness) and GET /debug/traces (recent spans). Profiling handlers
// mount under /debug/pprof/ when the instance config enables them.

var (
	mHTTPRequests = obs.Default.CounterVec("xdmodfed_http_requests_total",
		"HTTP requests served, by route, method and status code.",
		"path", "method", "code")
	mHTTPSeconds = obs.Default.HistogramVec("xdmodfed_http_request_seconds",
		"HTTP request latency, by route.", nil, "path")

	restLog = obs.Logger("rest")
)

// FreshnessWindow is how recently a member must have delivered data
// for /healthz to report it fresh.
const FreshnessWindow = 5 * time.Minute

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// handle registers fn on mux wrapped with the observability middleware.
// The pattern is passed explicitly ("GET /api/chart") because it doubles
// as the metric's route label.
func (s *Server) handle(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		method, path = "", pattern
	}
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Cross-process trace propagation: adopt the caller's traceparent
		// (if any) so the request span joins its trace, and echo our span
		// back so the caller can stitch the two sides together.
		ctx := obs.ContextWithTraceParent(r.Context(), r.Header.Get("traceparent"))
		ctx, sp := obs.StartSpan(ctx, "http "+pattern)
		if tp := sp.TraceParent(); tp != "" {
			w.Header().Set("traceparent", tp)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		fn(rec, r.WithContext(ctx))
		code := strconv.Itoa(rec.code)
		mHTTPRequests.With(path, method, code).Inc()
		mHTTPSeconds.With(path).ObserveSince(start)
		sp.SetAttr("status", code)
		sp.End()
	})
}

// registerObsHandlers adds /metrics, /healthz, /debug/traces,
// /debug/slowlog and (when configured) the pprof handlers.
func (s *Server) registerObsHandlers(mux *http.ServeMux) {
	s.handle(mux, "GET /metrics", s.handleMetrics)
	s.handle(mux, "GET /healthz", s.handleHealthz)
	s.handle(mux, "GET /debug/traces", s.handleTraces)
	s.handle(mux, "GET /debug/slowlog", s.handleSlowlog)
	if s.Instance.Config.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := obs.Default.Render(w); err != nil {
		restLog.Error("metrics render failed", "err", err)
	}
}

// healthzResponse is the /healthz document. Satellites report sender
// progress and lag; hubs report per-member replication freshness.
type healthzResponse struct {
	Status        string         `json:"status"` // "ok" or "degraded"
	Instance      string         `json:"instance"`
	Role          string         `json:"role"`
	Version       string         `json:"version"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Members       []memberHealth `json:"members,omitempty"`
	Senders       []senderHealth `json:"senders,omitempty"`
	// Admission reports front-door queue occupancy when admission
	// control is enabled. /healthz itself is never gated on admission:
	// liveness probes must answer even at full shed.
	Admission *admission.Stats `json:"admission,omitempty"`
}

type memberHealth struct {
	Name       string    `json:"name"`
	Position   uint64    `json:"position"`
	LastBatch  time.Time `json:"last_batch"`
	LastEvent  time.Time `json:"last_event"`
	AgeSeconds float64   `json:"age_seconds"` // since last batch; -1 when never
	Fresh      bool      `json:"fresh"`
	// Mode is the member's replication mode ("facts", "pushdown" or
	// "loose"; empty until it first replicates). DeltaLag is how far a
	// pushdown member's applied deltas trail its committed raw position
	// (0 when converged).
	Mode     string `json:"mode,omitempty"`
	DeltaLag uint64 `json:"delta_lag,omitempty"`
	// A member whose batches fail to apply degrades the hub's health
	// and carries its consecutive failures and the newest error.
	Failures  int    `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

type senderHealth struct {
	Hub         string `json:"hub"`
	Position    uint64 `json:"position"`
	SentBatches int    `json:"sent_batches"`
	SentEvents  int    `json:"sent_events"`
	LagEvents   uint64 `json:"lag_events"`
	// Mode is the connection's replication mode ("facts" or
	// "pushdown"); pushdown senders also report flushed delta frames
	// and the position their newest deltas cover.
	Mode         string `json:"mode,omitempty"`
	Deltas       int    `json:"deltas,omitempty"`
	DeltaCovered uint64 `json:"delta_covered,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	role := "instance"
	switch {
	case s.Hub != nil:
		role = "hub"
	case s.Sat != nil:
		role = "satellite"
	}
	resp := healthzResponse{
		Status:        "ok",
		Instance:      s.Instance.Config.Name,
		Role:          role,
		Version:       s.Instance.Config.Version,
		UptimeSeconds: now.Sub(s.started).Seconds(),
	}
	if s.admit != nil {
		st := s.admit.Stats()
		resp.Admission = &st
	}
	if s.Hub != nil {
		for _, m := range s.Hub.Status().Members {
			mh := memberHealth{
				Name:       m.Name,
				Position:   m.Position,
				LastBatch:  m.LastBatch,
				LastEvent:  m.LastEvent,
				AgeSeconds: -1,
				Mode:       m.Mode,
				Failures:   m.Failures,
				LastError:  m.LastError,
			}
			if m.Mode == "pushdown" && m.Position > m.DeltaCovered {
				mh.DeltaLag = m.Position - m.DeltaCovered
			}
			if !m.LastBatch.IsZero() {
				mh.AgeSeconds = now.Sub(m.LastBatch).Seconds()
				mh.Fresh = now.Sub(m.LastBatch) <= FreshnessWindow
			}
			if !mh.Fresh || m.Failures > 0 {
				resp.Status = "degraded"
			}
			resp.Members = append(resp.Members, mh)
		}
	}
	if s.Sat != nil {
		head := s.Instance.DB.Binlog().Last()
		for _, st := range s.Sat.SenderStats() {
			sh := senderHealth{
				Hub:          st.Hub,
				Position:     st.Position,
				SentBatches:  st.SentBatches,
				SentEvents:   st.SentEvents,
				Mode:         st.Mode,
				Deltas:       st.Deltas,
				DeltaCovered: st.DeltaCovered,
			}
			if head > st.Position {
				sh.LagEvents = head - st.Position
			}
			resp.Senders = append(resp.Senders, sh)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTraces serves retained spans, newest first:
//
//	GET /debug/traces?trace_id=<hex>&name=<substring>&limit=20
//
// trace_id selects one distributed trace (exact match); name filters
// by span-name substring. Both combine with limit.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, errBadLimit(v))
			return
		}
		limit = n
	}
	spans := obs.DefaultTracer.Filter(q.Get("trace_id"), q.Get("name"), limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": obs.Enabled(),
		"count":   len(spans),
		"spans":   spans,
	})
}

type errBadLimit string

func (e errBadLimit) Error() string { return "invalid limit parameter " + strconv.Quote(string(e)) }
