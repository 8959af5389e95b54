package rest

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"xdmodfed/internal/admission"
	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/obs"
)

// mStaleServed counts chart requests answered with an epoch-stale
// cached result instead of a shed.
var mStaleServed = obs.Default.Counter("xdmodfed_rest_stale_charts_total",
	"Chart requests served an epoch-stale cached result (Warning: 110) under shed.")

// Front-door admission control. When the instance config enables it,
// every /api/ route passes the admission controller before doing any
// work: authenticated routes run the full tier stack (per-user quota,
// per-center quota, global rate, then the bounded execution queue)
// inside requireAuth/requireRole; the handful of unauthenticated
// routes (login, SSO, logout, version) pay only the global
// rate via admitAnon. Shed requests get 429 with an honest Retry-After
// — except chart GETs, which degrade to an epoch-stale cached result
// tagged "Warning: 110 ... Response is Stale" when the cache holds one
// (a dashboard showing slightly old numbers beats one showing errors).

// setupAdmission builds the controller from the instance config when
// it enables admission. Called from newServer.
func (s *Server) setupAdmission(ac config.AdmissionConfig) {
	if !ac.Enabled {
		return
	}
	qt, err := ac.QueueTimeoutDuration()
	if err != nil {
		// Validated at load time; fail safe on hand-built configs.
		restLog.Warn("ignoring invalid admission queue_timeout", "queue_timeout", ac.QueueTimeout, "err", err)
		qt = 0
	}
	s.admit = admission.New(admission.Config{
		Global:        admission.Rate{RPS: ac.GlobalRPS},
		PerCenter:     admission.Rate{RPS: ac.CenterRPS},
		PerUser:       admission.Rate{RPS: ac.UserRPS},
		MaxConcurrent: ac.MaxConcurrent,
		MaxQueue:      ac.MaxQueue,
		QueueTimeout:  qt,
	})
	s.centers = ac.Centers
}

// admitAnon gates an unauthenticated /api route on the global rate
// tier only. A no-op pass-through when admission is disabled.
func (s *Server) admitAnon(next http.HandlerFunc) http.HandlerFunc {
	if s.admit == nil {
		return next
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if d := s.admit.AdmitAnon(); !d.Admitted {
			s.writeShed(w, d)
			return
		}
		next(w, r)
	}
}

// writeShed answers a shed request: 429, a positive integral
// Retry-After (ceiling, so "come back in 700ms" never rounds to 0),
// and a JSON body naming the reason.
func (s *Server) writeShed(w http.ResponseWriter, d admission.Decision) {
	secs := int64(math.Ceil(d.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	restLog.Warn("request shed", "reason", d.Reason, "retry_after_s", secs)
	writeJSON(w, http.StatusTooManyRequests, map[string]string{
		"error":  "over capacity, retry later",
		"reason": d.Reason,
	})
}

// shedOrDegrade handles a refused authenticated request. Chart GETs in
// JSON format degrade to the last cached result for the same query —
// even one from a stale epoch — tagged with a "Warning: 110" header
// and the shed's Retry-After, when the cache holds one. Everything
// else (and cache misses) gets the plain 429.
func (s *Server) shedOrDegrade(w http.ResponseWriter, r *http.Request, d admission.Decision) {
	if r.Method == http.MethodGet && r.URL.Path == "/api/chart" {
		q := r.URL.Query()
		if f := q.Get("format"); f == "" || f == "json" {
			if p, err := s.parseChartRequest(q); err == nil {
				if res, epoch, ok := s.cache.PeekStale(chartKey(p.realm, p.req, p.rollup, p.top)); ok {
					body, err := encodeChartJSON(p, res.Series, nil)
					if err != nil {
						writeErr(w, http.StatusInternalServerError, err)
						return
					}
					secs := int64(math.Ceil(d.RetryAfter.Seconds()))
					if secs < 1 {
						secs = 1
					}
					w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
					w.Header().Set("Warning", `110 - "Response is Stale"`)
					restLog.Warn("serving stale chart under shed",
						"reason", d.Reason, "realm", p.realm, "epoch", epoch)
					mStaleServed.Inc()
					writeBody(w, http.StatusOK, "application/json", body)
					return
				}
			}
		}
	}
	s.writeShed(w, d)
}

// chartParams is one fully parsed /api/chart query.
type chartParams struct {
	realm  string
	req    aggregate.Request
	rollup string
	top    int
}

// parseChartRequest parses and validates the chart query parameters.
// Shared by the admitted path and the stale-serve path, so both
// resolve the identical cache key for the same URL.
func (s *Server) parseChartRequest(q url.Values) (chartParams, error) {
	p := chartParams{realm: q.Get("realm")}
	if p.realm == "" {
		return p, fmt.Errorf("realm parameter required")
	}
	p.req = aggregate.Request{
		MetricID: q.Get("metric"),
		GroupBy:  q.Get("group_by"),
		Period:   aggregate.Month,
	}
	if pe := q.Get("period"); pe != "" {
		period, err := aggregate.Parse(pe)
		if err != nil {
			return p, err
		}
		p.req.Period = period
	}
	var err error
	if p.req.StartKey, err = parseKey(q.Get("start")); err != nil {
		return p, err
	}
	if p.req.EndKey, err = parseKey(q.Get("end")); err != nil {
		return p, err
	}
	for key, vals := range q {
		if dim, ok := strings.CutPrefix(key, "filter."); ok && len(vals) > 0 {
			if p.req.Filters == nil {
				p.req.Filters = map[string]string{}
			}
			p.req.Filters[dim] = vals[0]
		}
	}
	// rollup=<level> regroups a by-PI result through the instance's
	// institutional hierarchy (decanal unit / department / PI group).
	// Parsed before querying so the cache key covers the full
	// post-processed result.
	p.rollup = q.Get("rollup")
	if p.rollup != "" {
		if s.Instance.Hierarchy == nil {
			return p, fmt.Errorf("this instance has no hierarchy configured")
		}
		if p.req.GroupBy != "pi" {
			return p, fmt.Errorf("rollup requires group_by=pi")
		}
	}
	if topStr := q.Get("top"); topStr != "" {
		p.top, err = strconv.Atoi(topStr)
		if err != nil || p.top < 1 {
			return p, fmt.Errorf("invalid top parameter %q", topStr)
		}
	}
	return p, nil
}
