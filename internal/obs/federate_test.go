package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeMember serves a member-shaped /metrics and /healthz.
func fakeMember(t *testing.T, fill func(*Registry)) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	fill(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		reg.Render(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","instance":"siteA"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFederatorScrapeAndRender(t *testing.T) {
	member := fakeMember(t, func(r *Registry) {
		r.Counter("xdmodfed_ingest_records_total", "Records ingested.").Add(25)
		r.GaugeVec("xdmodfed_replication_lag_events", "Lag.", "hub").With("hubA").Set(3)
		r.Histogram("custom_seconds", "Latency.", []float64{1}).Observe(0.5)
	})
	f := NewFederator(nil, time.Hour, time.Second)
	f.AddTarget("siteA", member.URL)
	if f.Targets() != 1 {
		t.Fatalf("targets = %d", f.Targets())
	}
	f.ScrapeOnce(context.Background())

	snaps := f.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot has %d members", len(snaps))
	}
	m := snaps[0]
	if !m.Up || m.Name != "siteA" || m.Health != "ok" {
		t.Fatalf("member state = %+v", m)
	}
	if m.Series < 3 {
		t.Errorf("series = %d, want >= 3", m.Series)
	}
	if m.StalenessSeconds < 0 {
		t.Errorf("staleness = %g after a successful scrape", m.StalenessSeconds)
	}
	if m.Gauges[`xdmodfed_replication_lag_events{hub=hubA}`] != 3 {
		t.Errorf("gauges = %v", m.Gauges)
	}

	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Names rewritten to the member namespace, member label first,
	// original labels preserved.
	for _, want := range []string{
		"# TYPE xdmodfed_member_ingest_records_total counter",
		`xdmodfed_member_ingest_records_total{member="siteA"} 25`,
		`xdmodfed_member_replication_lag_events{member="siteA",hub="hubA"} 3`,
		"# TYPE xdmodfed_member_custom_seconds histogram",
		`xdmodfed_member_custom_seconds_bucket{member="siteA",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\nxdmodfed_ingest_records_total") {
		t.Errorf("un-rewritten member family leaked:\n%s", out)
	}
	// The re-export must itself be parseable exposition.
	if _, err := ParseExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("re-export does not parse: %v", err)
	}
}

func TestFederatorFailureBackoff(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close() // connection refused from here on

	f := NewFederator([]MemberTarget{{Name: "gone", Addr: addr}}, time.Hour, 200*time.Millisecond)
	for i := 0; i < fedFailThreshold; i++ {
		f.ScrapeOnce(context.Background())
	}
	snaps := f.Snapshot()
	m := snaps[0]
	if m.Up || m.ConsecutiveFailures != fedFailThreshold || m.LastError == "" {
		t.Fatalf("member state after %d failures = %+v", fedFailThreshold, m)
	}
	if m.BackoffSecondsLeft <= 0 {
		t.Fatalf("no backoff after reaching the failure threshold: %+v", m)
	}
	// A down member contributes nothing to the federated render.
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("down member rendered output:\n%s", b.String())
	}
	// Recovery: point the same member at a live server and force a
	// scrape (ScrapeOnce ignores backoff); state must fully reset.
	live := fakeMember(t, func(r *Registry) {
		r.Counter("xdmodfed_ok_total", "h").Inc()
	})
	f.AddTarget("gone", live.URL)
	f.ScrapeOnce(context.Background())
	m = f.Snapshot()[0]
	if !m.Up || m.ConsecutiveFailures != 0 || m.BackoffSecondsLeft != 0 || m.LastError != "" {
		t.Fatalf("member did not recover: %+v", m)
	}
}

// TestOversizedMemberScrapeIsRefused: a member whose /metrics body is
// larger than maxScrapeBytes is reported down with an error that names
// the cap, rather than buffered and parsed whole.
func TestOversizedMemberScrapeIsRefused(t *testing.T) {
	var body strings.Builder
	body.WriteString("# TYPE pad_total counter\n")
	for i := 0; body.Len() <= maxScrapeBytes; i++ {
		fmt.Fprintf(&body, "pad_total{i=\"%d\"} 1\n", i)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			w.Header().Set("Content-Type", ContentType)
			io.WriteString(w, body.String())
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	f := NewFederator([]MemberTarget{{Name: "big", Addr: srv.URL}}, time.Hour, 5*time.Second)
	f.ScrapeOnce(context.Background())
	m := f.Snapshot()[0]
	if m.Up || !strings.Contains(m.LastError, strconv.Itoa(maxScrapeBytes)) {
		t.Fatalf("member serving a %d-byte /metrics body: up=%v err=%q, want down with an error naming the %d-byte cap",
			body.Len(), m.Up, m.LastError, maxScrapeBytes)
	}
	var out strings.Builder
	if err := f.Render(&out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused member rendered %d bytes", out.Len())
	}
}

func TestMemberFamilyName(t *testing.T) {
	cases := map[string]string{
		"xdmodfed_http_requests_total": "xdmodfed_member_http_requests_total",
		"go_goroutines":                "xdmodfed_member_go_goroutines",
		"xdmodfed_member_x":            "xdmodfed_member_member_x", // double federation stays collision-free
	}
	for in, want := range cases {
		if got := memberFamilyName(in); got != want {
			t.Errorf("memberFamilyName(%q) = %q, want %q", in, got, want)
		}
	}
}
