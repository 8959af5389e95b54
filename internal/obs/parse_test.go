package obs

import (
	"math"
	"strings"
	"testing"
)

// TestExpositionRoundTrip proves the parser inverts Render exactly for
// the shapes the federator scrapes: escaped help and label values,
// histogram suffix attachment, multiple families.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nback\\slash").Add(7)
	lv := r.CounterVec("lbl_total", "labelled", "path")
	lv.With(`a"b\c` + "\nd").Add(3)
	g := r.GaugeVec("lag_events", "replication lag", "hub")
	g.With("hubA").Set(12.5)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 2} {
		h.Observe(v)
	}

	fams, err := ParseExposition(strings.NewReader(r.RenderString()))
	if err != nil {
		t.Fatalf("parse own render: %v", err)
	}
	byName := map[string]ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if len(fams) != 4 {
		t.Fatalf("parsed %d families, want 4 (%v)", len(fams), byName)
	}

	// Help escaping round-trips back to the original text.
	esc := byName["esc_total"]
	if esc.Help != "line one\nback\\slash" {
		t.Errorf("help round trip = %q", esc.Help)
	}
	if esc.Type != "counter" || len(esc.Samples) != 1 || esc.Samples[0].Value != 7 {
		t.Errorf("esc_total family = %+v", esc)
	}

	// Label value escaping round-trips.
	lbl := byName["lbl_total"]
	if len(lbl.Samples) != 1 || lbl.Samples[0].Label("path") != `a"b\c`+"\nd" {
		t.Errorf("label round trip = %+v", lbl.Samples)
	}

	// Gauge value survives.
	lag := byName["lag_events"]
	if lag.Type != "gauge" || len(lag.Samples) != 1 || lag.Samples[0].Value != 12.5 || lag.Samples[0].Label("hub") != "hubA" {
		t.Errorf("lag_events family = %+v", lag)
	}

	// Histogram: _bucket/_sum/_count lines attach to the base family,
	// with cumulative le buckets including +Inf.
	lat := byName["lat_seconds"]
	if lat.Type != "histogram" {
		t.Fatalf("lat_seconds type = %q", lat.Type)
	}
	if len(lat.Samples) != 6 {
		t.Fatalf("histogram carries %d samples, want 6 (4 buckets + sum + count): %+v", len(lat.Samples), lat.Samples)
	}
	wantBuckets := map[string]float64{"0.1": 2, "0.5": 3, "1": 3, "+Inf": 4}
	var sum, count float64
	for _, s := range lat.Samples {
		switch s.Name {
		case "lat_seconds_bucket":
			le := s.Label("le")
			if s.Value != wantBuckets[le] {
				t.Errorf("bucket le=%q = %g, want %g", le, s.Value, wantBuckets[le])
			}
			delete(wantBuckets, le)
		case "lat_seconds_sum":
			sum = s.Value
		case "lat_seconds_count":
			count = s.Value
		}
	}
	if len(wantBuckets) != 0 {
		t.Errorf("missing buckets: %v", wantBuckets)
	}
	if math.Abs(sum-2.45) > 1e-9 || count != 4 {
		t.Errorf("sum/count = %g/%g, want 2.45/4", sum, count)
	}
}

// TestRenderDeterministic: two renders of the same registry are
// byte-identical (families sorted by name, series sorted by value),
// so scrape diffs mean data changes, never map-order noise.
func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("det_total", "h", "a", "b")
	v.With("x", "1").Inc()
	v.With("y", "2").Add(2)
	v.With("w", "0").Add(3)
	r.Gauge("det_gauge", "h").Set(1)
	first := r.RenderString()
	for i := 0; i < 5; i++ {
		if got := r.RenderString(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// And it parses to families in that same deterministic order.
	fams, err := ParseExposition(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 || fams[0].Name != "det_gauge" || fams[1].Name != "det_total" {
		t.Fatalf("family order = %+v", fams)
	}
}

func TestParseExpositionEdgeCases(t *testing.T) {
	// Timestamps are tolerated and ignored; unknown comments skipped;
	// an unannounced family still collects its samples.
	doc := "# some comment\nfree_total{k=\"v\"} 3 1712345678\n\nplain 1\n"
	fams, err := ParseExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 || fams[0].Name != "free_total" || fams[0].Samples[0].Value != 3 {
		t.Fatalf("parsed %+v", fams)
	}
	if fams[1].Name != "plain" || fams[1].Type != "" {
		t.Fatalf("unannounced family = %+v", fams[1])
	}
	// A _bucket suffix without an announced histogram base stays its
	// own family (no misattachment).
	fams, err = ParseExposition(strings.NewReader("solo_bucket{le=\"1\"} 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Name != "solo_bucket" {
		t.Fatalf("suffix misattached: %+v", fams)
	}
	// Malformed lines are errors, not silent drops.
	for _, bad := range []string{"{x=\"y\"} 1\n", "name{x=\"y\" 1\n", "name notanumber\n", "name{x=\"unterminated} 1\n"} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition(%q) accepted", bad)
		}
	}
}

// TestHelpEndingInCRRoundTrips: the format escapes only backslash and
// newline in HELP text, so a help ending in '\r' renders the '\r' as is
// right before the line's newline, and the parser keeps it.
func TestHelpEndingInCRRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "ends in cr\r").Inc()
	fams, err := ParseExposition(strings.NewReader(r.RenderString()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Help != "ends in cr\r" || fams[0].Type != "counter" || len(fams[0].Samples) != 1 {
		t.Fatalf("parsed %+v", fams)
	}
}
