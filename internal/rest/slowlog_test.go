package rest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestChartExplainAndSlowlog drives /api/chart with ?explain=1 twice
// (miss then hit) and checks the same stats land in /debug/slowlog.
func TestChartExplainAndSlowlog(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)

	const chartPath = "/api/chart?realm=Jobs&metric=total_cpu_hours&group_by=person&period=month&explain=1"
	var first, second chartResponse
	for i, out := range []*chartResponse{&first, &second} {
		rec := get(t, srv, token, chartPath)
		if rec.Code != http.StatusOK {
			t.Fatalf("chart %d status %d: %s", i, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
		if rec.Header().Get("traceparent") == "" {
			t.Errorf("chart response %d missing traceparent header", i)
		}
	}
	if first.Explain == nil || second.Explain == nil {
		t.Fatal("explain=1 did not attach stats")
	}
	if first.Explain.Cache != "miss" || second.Explain.Cache != "hit" {
		t.Fatalf("cache outcomes = %s, %s; want miss, hit", first.Explain.Cache, second.Explain.Cache)
	}
	if first.Explain.RowsScanned <= 0 {
		t.Errorf("miss scanned %d rows", first.Explain.RowsScanned)
	}
	// The hit reports the rows the cached compute scanned.
	if second.Explain.RowsScanned != first.Explain.RowsScanned {
		t.Errorf("hit rows %d != miss rows %d", second.Explain.RowsScanned, first.Explain.RowsScanned)
	}
	if first.Explain.Realm != "Jobs" || first.Explain.Metric != "total_cpu_hours" || first.Explain.GroupBy != "person" {
		t.Errorf("explain identity = %+v", first.Explain)
	}
	if first.Explain.TraceID == "" || first.Explain.DurationMS < 0 || first.Explain.Epoch == 0 {
		t.Errorf("explain stats = %+v", first.Explain)
	}

	// Without explain=1 the response carries no stats.
	rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=total_cpu_hours")
	var plain chartResponse
	json.Unmarshal(rec.Body.Bytes(), &plain)
	if plain.Explain != nil {
		t.Error("explain attached without ?explain=1")
	}

	// The slow-query log recorded every query, newest
	// first, with the cache outcome and scan size populated.
	rec = get(t, srv, "", "/debug/slowlog")
	if rec.Code != http.StatusOK {
		t.Fatalf("slowlog status %d", rec.Code)
	}
	var doc struct {
		Enabled bool        `json:"enabled"`
		Count   int         `json:"count"`
		Entries []QueryStat `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Enabled || doc.Count != 3 {
		t.Fatalf("slowlog = enabled %v count %d, want 3 entries", doc.Enabled, doc.Count)
	}
	// Newest first: the ungrouped query (its own key → miss), then the
	// explain hit, then the explain miss.
	if doc.Entries[2].Cache != "miss" || doc.Entries[1].Cache != "hit" || doc.Entries[0].Cache != "miss" {
		t.Fatalf("slowlog cache order = %s,%s,%s", doc.Entries[0].Cache, doc.Entries[1].Cache, doc.Entries[2].Cache)
	}
	if doc.Entries[1].RowsScanned != first.Explain.RowsScanned {
		t.Errorf("slowlog rows %d != explain rows %d", doc.Entries[1].RowsScanned, first.Explain.RowsScanned)
	}
	if doc.Entries[2].TraceID != first.Explain.TraceID {
		t.Errorf("slowlog trace %s != explain trace %s", doc.Entries[2].TraceID, first.Explain.TraceID)
	}

	// ?limit= applies, bad values are 400.
	rec = get(t, srv, "", "/debug/slowlog?limit=1")
	json.Unmarshal(rec.Body.Bytes(), &doc)
	if doc.Count != 1 {
		t.Errorf("limited slowlog count = %d", doc.Count)
	}
	if rec := get(t, srv, "", "/debug/slowlog?limit=zero"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit status %d", rec.Code)
	}
}

// TestSlowLogThresholdAndErrors: the slow log has no threshold — fast,
// slow and failing queries are all recorded, newest first — and the
// ring stays bounded at DefaultSlowLogCapacity.
func TestSlowLogThresholdAndErrors(t *testing.T) {
	l := newSlowLog()
	l.record(QueryStat{Realm: "fast", DurationMS: 1})
	l.record(QueryStat{Realm: "failed", DurationMS: 1, Error: "boom"})
	l.record(QueryStat{Realm: "slow", DurationMS: 80})
	got := l.recent(0)
	if len(got) != 3 || got[0].Realm != "slow" || got[1].Realm != "failed" || got[2].Realm != "fast" {
		t.Fatalf("ring contents = %v", got)
	}
	for i := 0; i < DefaultSlowLogCapacity; i++ {
		l.record(QueryStat{Realm: "filler", DurationMS: float64(i)})
	}
	got = l.recent(0)
	if len(got) != DefaultSlowLogCapacity || got[0].DurationMS != DefaultSlowLogCapacity-1 || got[len(got)-1].DurationMS != 0 {
		t.Fatalf("full ring kept %d entries, newest %v, oldest %v", len(got), got[0], got[len(got)-1])
	}
	// nil receiver is a no-op (server without observability wiring).
	var nilLog *slowLog
	nilLog.record(QueryStat{})
}

// TestTraceparentPropagation: a caller-supplied traceparent is adopted
// (same trace id comes back) and a server span joins that trace.
func TestTraceparentPropagation(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	const incoming = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req := httptest.NewRequest("GET", "/api/version", nil)
	req.Header.Set("traceparent", incoming)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	echoed := rec.Header().Get("traceparent")
	if echoed == "" {
		t.Fatal("no traceparent echoed")
	}
	if got := echoed[3:35]; got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("response joined trace %s, want caller's", got)
	}
	if echoed == incoming {
		t.Fatal("traceparent echoed verbatim; want the server's own span id")
	}
}
