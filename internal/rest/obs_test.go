package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/warehouse"
)

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()

	// Drive a couple of requests through the middleware first.
	get(t, srv, "", "/api/version")
	get(t, srv, "", "/api/version")

	rec := get(t, srv, "", "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type %q, want %q", ct, obs.ContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE xdmodfed_http_requests_total counter",
		`xdmodfed_http_requests_total{path="/api/version",method="GET",code="200"}`,
		"# TYPE xdmodfed_http_request_seconds histogram",
		`xdmodfed_http_request_seconds_bucket{path="/api/version",le="+Inf"}`,
		"# TYPE xdmodfed_warehouse_txn_total counter",
		"# TYPE xdmodfed_ingest_records_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHealthzInstance(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	rec := get(t, srv, "", "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Instance != "ccr" || resp.Role != "instance" {
		t.Errorf("healthz = %+v", resp)
	}
	if resp.UptimeSeconds < 0 {
		t.Errorf("uptime %v", resp.UptimeSeconds)
	}
}

func TestHealthzHubFreshness(t *testing.T) {
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "fedhub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("siteA"); err != nil {
		t.Fatal(err)
	}
	srv := NewHubServer(hub).Handler()

	// Never-heard-from member: degraded.
	rec := get(t, srv, "", "/healthz")
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "degraded" || len(resp.Members) != 1 || resp.Members[0].Fresh {
		t.Errorf("healthz before any batch = %+v", resp)
	}
	if resp.Members[0].AgeSeconds != -1 {
		t.Errorf("age of never-seen member = %v, want -1", resp.Members[0].AgeSeconds)
	}

	// After a batch the member is fresh and the hub healthy.
	if err := hub.ApplyBatch("siteA", 7, nil); err != nil {
		t.Fatal(err)
	}
	rec = get(t, srv, "", "/healthz")
	resp = healthzResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Role != "hub" {
		t.Errorf("healthz after batch = %+v", resp)
	}
	m := resp.Members[0]
	if m.Name != "siteA" || m.Position != 7 || !m.Fresh || m.AgeSeconds < 0 {
		t.Errorf("member health = %+v", m)
	}
}

func TestDebugTraces(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	get(t, srv, "", "/api/version") // generate at least one span

	rec := get(t, srv, "", "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Enabled bool       `json:"enabled"`
		Count   int        `json:"count"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Count == 0 || len(resp.Spans) != resp.Count {
		t.Fatalf("traces = enabled=%v count=%d spans=%d", resp.Enabled, resp.Count, len(resp.Spans))
	}
	found := false
	for _, sp := range resp.Spans {
		if sp.Name == "http GET /api/version" {
			found = true
			if sp.TraceID == "" || sp.SpanID == "" {
				t.Errorf("span missing ids: %+v", sp)
			}
		}
	}
	if !found {
		t.Error("no span recorded for GET /api/version")
	}

	if rec := get(t, srv, "", "/debug/traces?limit=1"); rec.Code != http.StatusOK {
		t.Errorf("limit=1 status %d", rec.Code)
	} else {
		var limited struct {
			Count int `json:"count"`
		}
		json.Unmarshal(rec.Body.Bytes(), &limited)
		if limited.Count != 1 {
			t.Errorf("limit=1 returned count %d", limited.Count)
		}
	}
	if rec := get(t, srv, "", "/debug/traces?limit=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit status %d", rec.Code)
	}
}

// TestWriteErrLogs asserts writeErr surfaces the cause server-side via
// the structured logger, not only in the response body.
func TestWriteErrLogs(t *testing.T) {
	var buf bytes.Buffer
	obs.SetLogOutput(&buf, false)
	defer obs.SetLogOutput(os.Stderr, false)

	srv := newServer(testInstance(t)).Handler()
	rec := get(t, srv, "", "/api/realms") // no token -> 401
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("status %d", rec.Code)
	}
	logged := buf.String()
	if !strings.Contains(logged, "component=rest") {
		t.Errorf("log missing component: %q", logged)
	}
	if !strings.Contains(logged, "status=401") {
		t.Errorf("log missing status: %q", logged)
	}
	if !strings.Contains(logged, "bearer token") {
		t.Errorf("log missing error cause: %q", logged)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	in := testInstance(t)
	srv := newServer(in).Handler()
	if rec := get(t, srv, "", "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without config flag: status %d, want 404", rec.Code)
	}

	in.Config.EnablePprof = true
	srv = newServer(in).Handler()
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("pprof with config flag: status %d, want 200", rec.Code)
	}
}

// TestHealthzFailingMember: a member whose batches keep failing to
// apply degrades /healthz and shows its consecutive failures and last
// error in both /healthz and /api/federation/status (and so in
// rest.Client.FederationStatus), while a healthy member beside it shows
// neither; one applied batch clears them.
func TestHealthzFailingMember(t *testing.T) {
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "fedhub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{config.HubWallTime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub.Instance.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")
	for _, m := range []string{"flaky", "steady"} {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewHubServer(hub).Handler()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	poison := warehouse.Event{
		LSN: 1, Kind: warehouse.EvInsert,
		Schema: "no_such_schema", Table: "no_such_table", Row: []any{int64(1)},
	}
	for i := 0; i < 3; i++ {
		if err := hub.ApplyBatch("flaky", 1, []warehouse.Event{poison}); err == nil {
			t.Fatal("poison batch applied cleanly")
		}
	}
	if err := hub.ApplyBatch("steady", 1, nil); err != nil {
		t.Fatal(err)
	}

	healthz := func() healthzResponse {
		t.Helper()
		var resp healthzResponse
		if err := json.Unmarshal(get(t, srv, "", "/healthz").Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := healthz()
	if resp.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", resp.Status)
	}
	for _, m := range resp.Members {
		switch m.Name {
		case "flaky":
			if m.Failures != 3 || !strings.Contains(m.LastError, "no_such_schema") {
				t.Errorf("failing member health = %+v", m)
			}
		case "steady":
			if m.Failures != 0 || m.LastError != "" {
				t.Errorf("healthy member health = %+v", m)
			}
		}
	}

	c := NewClient(ts.URL)
	if err := c.Login("admin", "hunter2hunter2"); err != nil {
		t.Fatal(err)
	}
	status := func() map[string]core.Member {
		t.Helper()
		st, err := c.FederationStatus()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]core.Member{}
		for _, m := range st.Members {
			out[m.Name] = m
		}
		return out
	}
	members := status()
	if m := members["flaky"]; m.Failures != 3 || !strings.Contains(m.LastError, "no_such_schema") {
		t.Errorf("failing member status = %+v", m)
	}
	if m := members["steady"]; m.Failures != 0 || m.LastError != "" {
		t.Errorf("healthy member status = %+v", m)
	}

	// One applied batch clears the failures.
	if err := hub.ApplyBatch("flaky", 1, nil); err != nil {
		t.Fatal(err)
	}
	if resp := healthz(); resp.Status != "ok" {
		t.Errorf("healthz after an applied batch = %+v, want ok", resp)
	}
	if m := status()["flaky"]; m.Failures != 0 || m.LastError != "" {
		t.Errorf("member status after an applied batch = %+v", m)
	}
}
