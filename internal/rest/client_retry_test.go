package rest

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shedThenAdmit answers the first n requests with a 429 + Retry-After
// and everything after with 200.
func shedThenAdmit(n int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"over capacity, retry later","reason":"rate_global"}`))
			return
		}
		w.Write([]byte(`{"name":"hub","version":"1","role":"hub"}`))
	}))
	return srv, &calls
}

func TestClientRetriesAfterShed(t *testing.T) {
	srv, calls := shedThenAdmit(2, "3")
	defer srv.Close()
	c := NewClient(srv.URL)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	var out map[string]string
	if err := c.do("GET", "/api/version", nil, &out); err != nil {
		t.Fatalf("request failed after sheds: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", calls.Load())
	}
	if out["name"] != "hub" {
		t.Fatalf("decoded %v", out)
	}
	// Each wait honors Retry-After: jittered over [d/2, d] of the 3s hint.
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d < 1500*time.Millisecond || d > 3*time.Second {
			t.Fatalf("sleep %d = %v, want within [1.5s, 3s]", i, d)
		}
	}
}

// TestClientGivesUpAfterMaxAttempts: the client stops after
// MaxAttempts calls and sleeps only between them, never after the last
// one, so MaxAttempts=1 returns the first shed at once.
func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	for _, attempts := range []int{1, 2, 3} {
		srv, calls := shedThenAdmit(100, "1")
		c := NewClient(srv.URL)
		c.MaxAttempts = attempts
		sleeps := 0
		c.sleep = func(time.Duration) { sleeps++ }
		err := c.do("GET", "/api/version", nil, nil)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "429") {
			t.Fatalf("MaxAttempts=%d: err = %v, want terminal 429", attempts, err)
		}
		if int(calls.Load()) != attempts {
			t.Errorf("MaxAttempts=%d: server saw %d calls", attempts, calls.Load())
		}
		if sleeps != attempts-1 {
			t.Errorf("MaxAttempts=%d: slept %d times, want %d", attempts, sleeps, attempts-1)
		}
	}
}

func TestClientCapsRetryAfter(t *testing.T) {
	srv, _ := shedThenAdmit(1, "3600") // hostile hint: one hour
	defer srv.Close()
	c := NewClient(srv.URL)
	c.MaxRetryDelay = 2 * time.Second
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := c.do("GET", "/api/version", nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] > 2*time.Second {
		t.Fatalf("slept %v, want a single wait capped at 2s", slept)
	}
}

// POST bodies must replay across retries: the shed attempt consumes
// the reader, so the client has to re-send the same payload.
func TestClientReplaysBodyOnRetry(t *testing.T) {
	var bodies []string
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 256)
		n, _ := r.Body.Read(b)
		bodies = append(bodies, string(b[:n]))
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	c.sleep = func(time.Duration) {}
	if err := c.do("POST", "/api/x", strings.NewReader(`{"a":1}`), nil); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || bodies[0] != `{"a":1}` || bodies[1] != `{"a":1}` {
		t.Fatalf("bodies %q, want the payload twice", bodies)
	}
}
