// Package rest exposes an XDMoD instance (or federation hub) over
// HTTP: the programmatic face of the paper's web interface. It serves
// realm/metric discovery, chart queries (timeseries and aggregate,
// with filtering, grouping and drill-down), data export (JSON/CSV/SVG),
// authentication (local password and SSO assertions, Fig. 4), and —
// on hubs — federation status and membership (Fig. 2).
package rest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xdmodfed/internal/admission"
	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/chart"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/qcache"
)

// Server wraps one instance (satellite or hub) with HTTP handlers.
type Server struct {
	Instance *core.Instance
	Hub      *core.Hub       // nil on satellites
	Sat      *core.Satellite // nil unless built with NewSatelliteServer

	// cache holds fully post-processed chart results (after rollup and
	// top-N), keyed by the canonical request and invalidated by the
	// warehouse epoch.
	cache *qcache.Cache[chartResult]

	// slow is the bounded slow-query ring behind GET /debug/slowlog.
	slow *slowLog

	// admit is the front-door admission controller; nil unless the
	// instance config enables admission.
	admit *admission.Controller
	// centers maps usernames to center (tenant) names for the
	// per-center admission tier.
	centers map[string]string

	started time.Time
}

// chartResult is the cached unit of one chart query: the
// post-processed series plus the execution statistics of the compute
// that produced them, so a cache hit can still report rows scanned.
type chartResult struct {
	Series      []aggregate.Series
	RowsScanned int
}

// newServer wires the shared parts of every server flavour: the
// query-result cache, the slow-query ring and, when the instance
// config enables it, admission control.
func newServer(in *core.Instance) *Server {
	s := &Server{
		Instance: in,
		started:  time.Now(),
		cache: qcache.New[chartResult](qcache.Config{
			Name:     in.Config.Name,
			MaxBytes: in.Config.QueryCache.MaxBytes,
		}, chartResultBytes),
		slow: newSlowLog(),
	}
	s.setupAdmission(in.Config.Admission)
	return s
}

// NewHubServer creates a server for a federation hub.
func NewHubServer(h *core.Hub) *Server {
	s := newServer(h.Instance)
	s.Hub = h
	return s
}

// NewSatelliteServer creates a server for a satellite; /healthz then
// reports the satellite's replication senders and their lag.
func NewSatelliteServer(sat *core.Satellite) *Server {
	s := newServer(sat.Instance)
	s.Sat = sat
	return s
}

// Handler returns the HTTP mux for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.handle(mux, "POST /api/auth/login", s.admitAnon(s.handleLogin))
	s.handle(mux, "POST /api/auth/sso", s.admitAnon(s.handleSSO))
	s.handle(mux, "POST /api/auth/logout", s.admitAnon(s.handleLogout))
	s.handle(mux, "GET /api/version", s.admitAnon(s.handleVersion))
	s.handle(mux, "GET /api/realms", s.requireAuth(s.handleRealms))
	s.handle(mux, "GET /api/chart", s.requireAuth(s.handleChart))
	s.handle(mux, "GET /api/jobs/{resource}/{id}", s.requireAuth(s.handleJobViewer))
	s.handle(mux, "GET /api/federation/status", s.requireAuth(s.handleFederationStatus))
	s.registerFederationHandlers(mux)
	s.registerAppKernelHandlers(mux)
	s.registerRealmExtraHandlers(mux)
	s.registerObsHandlers(mux)
	return mux
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it writes the header, so a value that
// cannot be encoded is answered with a logged 500 instead of an empty
// 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	writeBody(w, status, "application/json", append(b, '\n'))
}

// writeBody sends a complete response body in one Write.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(body)
}

// writeErr sends the error response and logs it server-side, so the
// cause of every 4xx/5xx is visible in the instance's logs and not
// only in the client's body.
func writeErr(w http.ResponseWriter, status int, err error) {
	if status >= 500 {
		restLog.Error("request failed", "status", status, "err", err)
	} else {
		restLog.Warn("request rejected", "status", status, "err", err)
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// requireAuth enforces sign-on: "users must sign on to XDMoD to use
// most of its advanced features" (paper §II-D). The bearer token is
// checked by the instance's authenticator, the one place that knows
// which sessions are live, and the authenticated request then passes
// through the admission controller when one is configured.
func (s *Server) requireAuth(next func(http.ResponseWriter, *http.Request, auth.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get("Authorization")
		const prefix = "Bearer "
		if !strings.HasPrefix(h, prefix) {
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("missing bearer token"))
			return
		}
		sess, err := s.Instance.Auth.Validate(strings.TrimPrefix(h, prefix))
		if err != nil {
			writeErr(w, http.StatusUnauthorized, err)
			return
		}
		if s.admit != nil {
			d := s.admit.Admit(r.Context(), sess.Username, s.centers[sess.Username])
			if !d.Admitted {
				s.shedOrDegrade(w, r, d)
				return
			}
			defer d.Release()
		}
		next(w, r, sess)
	}
}

type loginRequest struct {
	Username string `json:"username"`
	Password string `json:"password"`
}

type loginResponse struct {
	Token    string `json:"token"`
	Username string `json:"username"`
	Role     string `json:"role"`
	Via      string `json:"via"`
}

// maxAuthBodyBytes bounds login and SSO request bodies: credentials
// and assertions are small, and an unauthenticated POST must not be
// able to buffer an arbitrarily large body.
const maxAuthBodyBytes = 1 << 20

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req loginRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAuthBodyBytes)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.Instance.Auth.LoginLocal(req.Username, req.Password)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, loginResponse{Token: sess.Token, Username: sess.Username, Role: string(sess.Role), Via: sess.Via})
}

func (s *Server) handleSSO(w http.ResponseWriter, r *http.Request) {
	var assertion auth.Assertion
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAuthBodyBytes)).Decode(&assertion); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.Instance.Auth.LoginSSO(assertion)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, loginResponse{Token: sess.Token, Username: sess.Username, Role: string(sess.Role), Via: sess.Via})
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	h := r.Header.Get("Authorization")
	if strings.HasPrefix(h, "Bearer ") {
		s.Instance.Auth.Logout(strings.TrimPrefix(h, "Bearer "))
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"name":    s.Instance.Config.Name,
		"version": s.Instance.Config.Version,
		"role":    map[bool]string{true: "hub", false: "instance"}[s.Hub != nil],
	})
}

type realmResponse struct {
	Name       string           `json:"name"`
	Metrics    []metricResponse `json:"metrics"`
	Dimensions []dimResponse    `json:"dimensions"`
}

type metricResponse struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type dimResponse struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Numeric bool   `json:"numeric"`
}

func (s *Server) handleRealms(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	var out []realmResponse
	for _, name := range s.Instance.Registry.Names() {
		info, _ := s.Instance.Registry.Get(name)
		rr := realmResponse{Name: info.Name}
		for _, m := range info.Metrics {
			rr.Metrics = append(rr.Metrics, metricResponse{ID: m.ID, Name: m.Name, Unit: m.Unit})
		}
		for _, d := range info.Dimensions {
			rr.Dimensions = append(rr.Dimensions, dimResponse{ID: d.ID, Name: d.Name, Numeric: d.Numeric})
		}
		out = append(out, rr)
	}
	writeJSON(w, http.StatusOK, out)
}

type chartResponse struct {
	Realm  string           `json:"realm"`
	Metric string           `json:"metric"`
	Period string           `json:"period"`
	Series []seriesResponse `json:"series"`
	// Explain carries the query's execution statistics when the request
	// asked for them with ?explain=1.
	Explain *QueryStat `json:"explain,omitempty"`
}

type seriesResponse struct {
	Group     string          `json:"group"`
	Aggregate float64         `json:"aggregate"`
	N         int64           `json:"n"`
	Points    []pointResponse `json:"points"`
}

type pointResponse struct {
	Period string  `json:"period"`
	Key    int64   `json:"key"`
	Value  float64 `json:"value"`
}

// handleChart answers chart queries:
//
//	GET /api/chart?realm=Jobs&metric=total_su_charged&group_by=resource
//	    &period=month&start=201701&end=201712&filter.resource=comet
//	    &top=3&format=json|csv|svg|text
func (s *Server) handleChart(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	q := r.URL.Query()
	p, err := s.parseChartRequest(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	series, stat, err := s.QuerySeries(r.Context(), p.realm, p.req, p.rollup, p.top)
	if err != nil {
		// A malformed request (unknown realm, metric, dimension…) is the
		// client's fault; anything else — aggregation-table corruption,
		// warehouse failure — is ours and must surface as a 500, logged
		// at error level, not masquerade as a client error.
		status := http.StatusInternalServerError
		if errors.Is(err, aggregate.ErrBadRequest) {
			status = http.StatusBadRequest
		}
		writeErr(w, status, err)
		return
	}

	title := q.Get("title")
	if title == "" {
		title = p.realm + ": " + p.req.MetricID
	}
	ch := chart.New(title, q.Get("subtitle"), p.req.MetricID, p.req.Period, series)
	switch q.Get("format") {
	case "", "json":
		var explain *QueryStat
		if q.Get("explain") == "1" {
			explain = &stat
		}
		body, err := encodeChartJSON(p, series, explain)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		writeBody(w, http.StatusOK, "application/json", body)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, ch.CSV())
	case "svg":
		writeBody(w, http.StatusOK, "image/svg+xml", ch.AppendSVG(nil, 0, 0))
	case "text":
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, ch.Text())
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", q.Get("format")))
	}
}

func parseKey(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid period key %q", s)
	}
	return v, nil
}

// QuerySeries answers one chart query — aggregation, optional
// hierarchy rollup and top-N — through the query-result cache when one
// is configured.
//
// Ordering is what makes cached results safe: every stale realm is
// rebuilt and every running write's refresh waited for FIRST
// (Instance.EnsureAggregated, on a satellite and a hub alike), and only
// then is the epoch read. The epoch is realm-scoped — the epoch of
// this realm's aggregate schema — so a write that only touches another
// realm leaves this realm's cached charts valid. An epoch observed here
// proves the realm's aggregates already reflect every write to them
// that preceded it, and the entry stored under it can be served until
// the next write to THIS realm bumps that epoch.
// The returned QueryStat describes how the query ran — duration, rows
// scanned, cache outcome, snapshot epoch — and has already been
// recorded into the RED metrics and the slow-query ring; ctx supplies
// the trace the stat is attributed to.
func (s *Server) QuerySeries(ctx context.Context, realmName string, req aggregate.Request, rollup string, top int) ([]aggregate.Series, QueryStat, error) {
	start := time.Now()
	stat := QueryStat{
		Time:    start.UTC(),
		Realm:   realmName,
		Metric:  req.MetricID,
		GroupBy: req.GroupBy,
		Period:  req.Period.String(),
		Start:   req.StartKey,
		End:     req.EndKey,
		Filters: req.Filters,
		Rollup:  rollup,
		Top:     top,
	}
	if tid, _, ok := obs.ParseTraceParent(obs.TraceParent(ctx)); ok {
		stat.TraceID = tid
	}
	finish := func(err error) {
		stat.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			stat.Error = err.Error()
		}
		s.observeQuery(stat)
	}
	if err := s.Instance.EnsureAggregated(); err != nil {
		finish(err)
		return nil, stat, err
	}
	stat.Epoch = s.realmEpoch(realmName)
	res, hit, err := s.cache.GetOrCompute(chartKey(realmName, req, rollup, top), stat.Epoch, func() (chartResult, error) {
		return s.computeSeries(ctx, realmName, req, rollup, top)
	})
	stat.Cache = map[bool]string{true: "hit", false: "miss"}[hit]
	stat.RowsScanned = res.RowsScanned
	finish(err)
	return res.Series, stat, err
}

// realmEpoch returns the cache-tag epoch for one realm: the epoch of
// the schema holding that realm's aggregate tables. Writes to other
// realms' schemas don't move it, so their commits no longer invalidate
// this realm's cached charts. Unknown realms fall back to the
// whole-warehouse epoch (the query will fail with a clear error
// anyway).
func (s *Server) realmEpoch(realmName string) uint64 {
	if info, ok := s.Instance.Registry.Get(realmName); ok {
		return s.Instance.DB.EpochOf(aggregate.AggSchema(info))
	}
	return s.Instance.DB.Epoch()
}

// computeSeries is the uncached query path. Its result is stored in
// (and shared through) the cache, so callers must not mutate it. ctx
// cancellation (a disconnected or shed client) skips the aggregation
// scan when it comes before the scan starts.
func (s *Server) computeSeries(ctx context.Context, realmName string, req aggregate.Request, rollup string, top int) (chartResult, error) {
	series, info, err := s.Instance.QueryStatsCtx(ctx, realmName, req)
	if err != nil {
		return chartResult{}, err
	}
	if rollup != "" && s.Instance.Hierarchy != nil {
		series = s.Instance.Hierarchy.Rollup(series, rollup)
	}
	if top > 0 {
		series = aggregate.TopN(series, top)
	}
	return chartResult{Series: series, RowsScanned: info.RowsScanned}, nil
}

// chartKey builds the cache key for one fully specified chart query.
func chartKey(realmName string, req aggregate.Request, rollup string, top int) string {
	return realmName + "|" + req.CanonicalKey() + "|r=" + rollup + "|t=" + strconv.Itoa(top)
}

// CacheStats exposes the query cache's counters (for tests and
// diagnostics); ok is always true, since every server has a cache.
func (s *Server) CacheStats() (qcache.Stats, bool) {
	return s.cache.Stats(), true
}

// chartResultBytes estimates the retained size of a cached chart
// result for the cache's byte accounting: slice headers, group
// strings, and 16 bytes per point (period key + value).
func chartResultBytes(res chartResult) int {
	n := 24
	for _, ser := range res.Series {
		n += 56 + len(ser.Group) + 16*len(ser.Points)
	}
	return n
}

// handleJobViewer serves the Job Viewer document for one job: its
// accounting and, when it has one, its SUPReMM summary.
func (s *Server) handleJobViewer(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid job id %q", r.PathValue("id")))
		return
	}
	detail, err := s.Instance.JobDetail(r.PathValue("resource"), id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, detail)
}

type federationStatusResponse struct {
	Hub         string           `json:"hub"`
	Version     string           `json:"version"`
	Dirty       bool             `json:"pending_aggregation"`
	DirtyRealms []string         `json:"pending_realms,omitempty"`
	Members     []memberResponse `json:"members"`
}

type memberResponse struct {
	Name     string `json:"name"`
	Position uint64 `json:"position"`
	Batches  int    `json:"batches"`
	Events   int    `json:"events"`
	// Mode is how the member replicates: "facts", "pushdown"
	// (partial-aggregate deltas) or "loose"; empty until it first does.
	Mode string `json:"mode,omitempty"`
	// Pushdown progress: applied delta frames, the bins they carried,
	// and how far the member's deltas trail its committed raw position
	// (0 when converged).
	Deltas       int    `json:"deltas,omitempty"`
	DeltaRows    int    `json:"delta_rows,omitempty"`
	DeltaCovered uint64 `json:"delta_covered,omitempty"`
	DeltaLag     uint64 `json:"delta_lag,omitempty"`
	// A member whose batches fail to apply: consecutive failures and
	// the newest one's error (both empty once a batch applies).
	Failures  int    `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

func (s *Server) handleFederationStatus(w http.ResponseWriter, r *http.Request, _ auth.Session) {
	if s.Hub == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("this instance is not a federation hub"))
		return
	}
	st := s.Hub.Status()
	resp := federationStatusResponse{Hub: st.Hub, Version: st.Version, Dirty: st.Dirty, DirtyRealms: st.DirtyRealms}
	for _, m := range st.Members {
		mr := memberResponse{Name: m.Name, Position: m.Position, Batches: m.Batches, Events: m.Events,
			Mode: m.Mode, Deltas: m.Deltas, DeltaRows: m.DeltaRows, DeltaCovered: m.DeltaCovered,
			Failures: m.Failures, LastError: m.LastError}
		if m.Mode == "pushdown" && m.Position > m.DeltaCovered {
			mr.DeltaLag = m.Position - m.DeltaCovered
		}
		resp.Members = append(resp.Members, mr)
	}
	writeJSON(w, http.StatusOK, resp)
}
