package rest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdmodfed/internal/admission"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/shredder"
)

// admissionServer builds a server over the standard test instance with
// the given admission knobs enabled.
func admissionServer(t *testing.T, ac config.AdmissionConfig) (*Server, *core.Instance) {
	t.Helper()
	in := testInstance(t)
	ac.Enabled = true
	in.Config.Admission = ac
	if err := in.Config.Validate(); err != nil {
		t.Fatal(err)
	}
	return newServer(in), in
}

func TestUserQuotaShedsWith429AndRetryAfter(t *testing.T) {
	s, _ := admissionServer(t, config.AdmissionConfig{
		UserRPS:   0.001, // burst floors at one request, then a long refill
		CenterRPS: -1, GlobalRPS: -1, MaxConcurrent: -1,
	})
	srv := s.Handler()
	token := login(t, srv)
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=total_cpu_hours"); rec.Code != http.StatusOK {
		t.Fatalf("first chart: %d %s", rec.Code, rec.Body)
	}
	rec := get(t, srv, token, "/api/realms")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", rec.Code)
	}
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want positive integer", rec.Header().Get("Retry-After"))
	}
	var body map[string]string
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["reason"] != "quota_user" {
		t.Fatalf("shed body %v", body)
	}
}

func TestAnonRoutesPayGlobalRate(t *testing.T) {
	s, _ := admissionServer(t, config.AdmissionConfig{
		GlobalRPS: 0.001,
		CenterRPS: -1, UserRPS: -1, MaxConcurrent: -1,
	})
	srv := s.Handler()
	if rec := get(t, srv, "", "/api/version"); rec.Code != http.StatusOK {
		t.Fatalf("first version: %d", rec.Code)
	}
	rec := get(t, srv, "", "/api/version")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second version: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Liveness endpoints are never gated: /healthz answers at full shed.
	if rec := get(t, srv, "", "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz under shed: %d", rec.Code)
	}
}

func TestQueueFullSheds(t *testing.T) {
	s, _ := admissionServer(t, config.AdmissionConfig{
		GlobalRPS: -1, CenterRPS: -1, UserRPS: -1,
		MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: "50ms",
	})
	srv := s.Handler()
	token := login(t, srv)
	// Occupy the only slot and the only queue seat out-of-band; the
	// HTTP request then finds the queue full and sheds instantly.
	hold := s.admit.Admit(context.Background(), "x", "")
	if !hold.Admitted {
		t.Fatalf("holder: %+v", hold)
	}
	defer hold.Release()
	waiting := make(chan struct{})
	go func() {
		defer close(waiting)
		d := s.admit.Admit(context.Background(), "y", "")
		d.Release()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.admit.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	rec := get(t, srv, token, "/api/realms")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: %d, want 429", rec.Code)
	}
	var body map[string]string
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["reason"] != "queue_full" {
		t.Fatalf("shed body %v", body)
	}
	<-waiting
}

func TestStaleChartServedUnderShed(t *testing.T) {
	s, in := admissionServer(t, config.AdmissionConfig{
		UserRPS:   0.001,
		CenterRPS: -1, GlobalRPS: -1, MaxConcurrent: -1,
	})
	srv := s.Handler()
	token := login(t, srv)
	const path = "/api/chart?realm=Jobs&metric=total_cpu_hours&period=year"
	first := get(t, srv, token, path)
	if first.Code != http.StatusOK {
		t.Fatalf("first chart: %d %s", first.Code, first.Body)
	}
	// New data bumps the epoch: the cached entry is now stale, and an
	// ADMITTED request would recompute it. This one is shed instead —
	// and degrades to the stale entry rather than erroring.
	end := time.Date(2018, 6, 10, 12, 0, 0, 0, time.UTC)
	if _, err := in.Pipeline.IngestJobRecords([]shredder.JobRecord{{
		LocalJobID: 999, User: "u0", Account: "a", Resource: "rush", Queue: "batch",
		Nodes: 1, Cores: 8, Submit: end.Add(-3 * time.Hour), Start: end.Add(-2 * time.Hour), End: end,
	}}); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, token, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("shed chart: %d, want stale 200 (%s)", rec.Code, rec.Body)
	}
	if w := rec.Header().Get("Warning"); w != `110 - "Response is Stale"` {
		t.Fatalf("Warning header %q", w)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("stale response missing Retry-After")
	}
	if rec.Body.String() != first.Body.String() {
		t.Fatalf("stale body differs from original:\n%s\nvs\n%s", rec.Body, first.Body)
	}
	st, _ := s.CacheStats()
	if st.StaleHits == 0 {
		t.Fatal("stale serve not counted")
	}
	// A non-chart route still sheds plainly.
	if rec := get(t, srv, token, "/api/realms"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("non-chart shed: %d", rec.Code)
	}
}

func TestCenterQuotaTenantIsolation(t *testing.T) {
	s, in := admissionServer(t, config.AdmissionConfig{
		UserRPS: -1, GlobalRPS: -1, MaxConcurrent: -1,
		CenterRPS: 0.001,
		Centers:   map[string]string{"admin": "ccr", "peer": "xsede"},
	})
	in.Auth.Vault().Create(auth.User{Username: "peer", Role: auth.RoleUser}, "hunter2hunter2")
	srv := s.Handler()
	token := login(t, srv)
	if rec := get(t, srv, token, "/api/realms"); rec.Code != http.StatusOK {
		t.Fatalf("first ccr request: %d", rec.Code)
	}
	rec := get(t, srv, token, "/api/realms")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second ccr request: %d, want 429", rec.Code)
	}
	var body map[string]string
	json.Unmarshal(rec.Body.Bytes(), &body)
	if body["reason"] != "quota_center" {
		t.Fatalf("shed body %v", body)
	}
	// A user from another center is unaffected by ccr's exhausted quota.
	peerTok := loginAs(t, srv, "peer", "hunter2hunter2")
	if rec := get(t, srv, peerTok, "/api/realms"); rec.Code != http.StatusOK {
		t.Fatalf("xsede request throttled by ccr quota: %d", rec.Code)
	}
}

// A client that disconnects mid-request must not leave its admission
// slot held: the canceled context aborts the query and the deferred
// release runs as the handler unwinds.
func TestCanceledRequestReleasesAdmission(t *testing.T) {
	s, _ := admissionServer(t, config.AdmissionConfig{
		GlobalRPS: -1, CenterRPS: -1, UserRPS: -1,
		MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: "100ms",
	})
	srv := s.Handler()
	token := login(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client gone before the handler runs
	req := httptest.NewRequest("GET", "/api/chart?realm=Jobs&metric=total_cpu_hours", nil).WithContext(ctx)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("canceled chart: %d, want 500", rec.Code)
	}
	if st := s.admit.Stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("admission leaked after cancel: %+v", st)
	}
	// The slot is immediately reusable.
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=total_cpu_hours"); rec.Code != http.StatusOK {
		t.Fatalf("follow-up chart: %d (%s)", rec.Code, rec.Body)
	}
}

// TestAdmissionStorm: 200 concurrent authenticated chart requests over
// HTTP against a front door of 4 slots and 8 queue seats. The slots are
// held out of band until half the storm has been answered, so the
// queue fills and later arrivals shed; then the queued requests and any
// still arriving run in the freed slots. Every request must end as a fresh 200, a
// stale 200 (Warning: 110) or a 429, the last two with a positive
// Retry-After; nothing may fail with a 5xx. Afterwards the controller
// is empty, a new request is admitted, and the goroutine count is back
// at its pre-storm level.
func TestAdmissionStorm(t *testing.T) {
	const storm, maxConcurrent = 200, 4
	s, _ := admissionServer(t, config.AdmissionConfig{
		GlobalRPS: -1, CenterRPS: -1, UserRPS: -1,
		MaxConcurrent: maxConcurrent, MaxQueue: 8, QueueTimeout: "200ms",
	})
	h := s.Handler()
	token := login(t, h)
	// Half the paths are cached before the storm, so a shed on them
	// degrades to the stale answer; the other half shed plainly.
	var paths []string
	for _, metric := range []string{"total_cpu_hours", "job_count", "total_wall_hours", "avg_job_size"} {
		for _, period := range []string{"month", "year"} {
			paths = append(paths, "/api/chart?realm=Jobs&metric="+metric+"&period="+period)
		}
	}
	for _, p := range paths[:len(paths)/2] {
		if rec := get(t, h, token, p); rec.Code != http.StatusOK {
			t.Fatalf("warming %s: %d %s", p, rec.Code, rec.Body)
		}
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: storm}}
	baseline := runtime.NumGoroutine()

	holds := make([]admission.Decision, maxConcurrent)
	for i := range holds {
		if holds[i] = s.admit.Admit(context.Background(), "holder", ""); !holds[i].Admitted {
			t.Fatalf("holder %d refused: %+v", i, holds[i])
		}
	}
	var fresh, stale, shed, answered atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			defer answered.Add(1)
			<-start
			req, _ := http.NewRequest("GET", srv.URL+path, nil)
			req.Header.Set("Authorization", "Bearer "+token)
			resp, err := client.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) // so the connection is reused
			resp.Body.Close()
			retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			warning := resp.Header.Get("Warning")
			switch {
			case resp.StatusCode == http.StatusOK && warning == "":
				fresh.Add(1)
			case resp.StatusCode == http.StatusOK && warning == `110 - "Response is Stale"` && retry >= 1:
				stale.Add(1)
			case resp.StatusCode == http.StatusTooManyRequests && retry >= 1:
				shed.Add(1)
			default:
				t.Errorf("GET %s: status %d, Warning %q, Retry-After %q",
					path, resp.StatusCode, warning, resp.Header.Get("Retry-After"))
			}
		}(paths[i%len(paths)])
	}
	close(start)
	waitFor(t, 30*time.Second, func() bool { return answered.Load() >= storm/2 }, "half the storm answered")
	for _, d := range holds {
		d.Release()
	}
	wg.Wait()
	t.Logf("storm of %d: %d fresh, %d stale, %d shed", storm, fresh.Load(), stale.Load(), shed.Load())
	if stale.Load() == 0 || shed.Load() == 0 {
		t.Errorf("storm did not overload the front door both ways: %d stale, %d shed", stale.Load(), shed.Load())
	}

	if st := s.admit.Stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("admission not drained after the storm: %+v", st)
	}
	if rec := get(t, h, token, paths[len(paths)-1]); rec.Code != http.StatusOK || rec.Header().Get("Warning") != "" {
		t.Fatalf("post-storm chart: %d, Warning %q", rec.Code, rec.Header().Get("Warning"))
	}
	client.CloseIdleConnections()
	waitFor(t, 10*time.Second, func() bool { return runtime.NumGoroutine() <= baseline },
		fmt.Sprintf("goroutines back to the pre-storm %d", baseline))
}

// waitFor polls cond until it holds or limit passes.
func waitFor(t *testing.T, limit time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", limit, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionDisabledIsWideOpen(t *testing.T) {
	s := newServer(testInstance(t))
	if s.admit != nil {
		t.Fatal("controller built with admission disabled")
	}
	srv := s.Handler()
	token := login(t, srv)
	for i := 0; i < 50; i++ {
		if rec := get(t, srv, token, "/api/realms"); rec.Code != http.StatusOK {
			t.Fatalf("request %d throttled with admission off: %d", i, rec.Code)
		}
	}
}
