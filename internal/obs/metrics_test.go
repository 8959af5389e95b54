package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRender is the table-driven exposition-format check: escaping,
// label ordering, histogram bucket cumulation.
func TestRender(t *testing.T) {
	tests := []struct {
		name string
		fill func(r *Registry)
		want []string // exact expected lines, in order
	}{
		{
			name: "counter plain",
			fill: func(r *Registry) {
				c := r.Counter("jobs_total", "Total jobs.")
				c.Add(41)
				c.Inc()
			},
			want: []string{
				"# HELP jobs_total Total jobs.",
				"# TYPE jobs_total counter",
				"jobs_total 42",
			},
		},
		{
			name: "help escaping",
			fill: func(r *Registry) {
				r.Counter("esc_total", "line one\nback\\slash").Inc()
			},
			want: []string{
				`# HELP esc_total line one\nback\\slash`,
				"# TYPE esc_total counter",
				"esc_total 1",
			},
		},
		{
			// The format escapes only backslash and newline in HELP
			// text, so a trailing '\r' renders as is, right before the
			// line's newline.
			name: "help ending in cr",
			fill: func(r *Registry) {
				r.Counter("a_total", "ends in cr\r").Inc()
			},
			want: []string{
				"# HELP a_total ends in cr\r",
				"# TYPE a_total counter",
				"a_total 1",
			},
		},
		{
			name: "label value escaping",
			fill: func(r *Registry) {
				v := r.CounterVec("lbl_total", "h", "path")
				v.With(`a"b\c` + "\nd").Inc()
			},
			want: []string{
				"# HELP lbl_total h",
				"# TYPE lbl_total counter",
				`lbl_total{path="a\"b\\c\nd"} 1`,
			},
		},
		{
			name: "label ordering declared order, series sorted by value",
			fill: func(r *Registry) {
				v := r.GaugeVec("multi", "h", "zeta", "alpha")
				v.With("b", "x").Set(2)
				v.With("a", "y").Set(1)
			},
			want: []string{
				"# HELP multi h",
				"# TYPE multi gauge",
				`multi{zeta="a",alpha="y"} 1`,
				`multi{zeta="b",alpha="x"} 2`,
			},
		},
		{
			name: "gauge float formatting",
			fill: func(r *Registry) {
				r.Gauge("g", "h").Set(2.5)
			},
			want: []string{
				"# HELP g h",
				"# TYPE g gauge",
				"g 2.5",
			},
		},
		{
			name: "histogram bucket cumulation",
			fill: func(r *Registry) {
				h := r.Histogram("lat_seconds", "h", []float64{0.1, 0.5, 1})
				// 0.05 -> le=0.1; 0.1 -> le=0.1 (le is inclusive);
				// 0.3 -> le=0.5; 2 -> +Inf.
				for _, v := range []float64{0.05, 0.1, 0.3, 2} {
					h.Observe(v)
				}
			},
			want: []string{
				"# HELP lat_seconds h",
				"# TYPE lat_seconds histogram",
				`lat_seconds_bucket{le="0.1"} 2`,
				`lat_seconds_bucket{le="0.5"} 3`,
				`lat_seconds_bucket{le="1"} 3`,
				`lat_seconds_bucket{le="+Inf"} 4`,
				"lat_seconds_sum 2.45",
				"lat_seconds_count 4",
			},
		},
		{
			name: "labeled histogram carries le last",
			fill: func(r *Registry) {
				v := r.HistogramVec("hv_seconds", "h", []float64{1}, "realm")
				v.With("Jobs").Observe(0.5)
			},
			want: []string{
				"# HELP hv_seconds h",
				"# TYPE hv_seconds histogram",
				`hv_seconds_bucket{realm="Jobs",le="1"} 1`,
				`hv_seconds_bucket{realm="Jobs",le="+Inf"} 1`,
				`hv_seconds_sum{realm="Jobs"} 0.5`,
				`hv_seconds_count{realm="Jobs"} 1`,
			},
		},
		{
			name: "families sorted by name",
			fill: func(r *Registry) {
				r.Counter("zz_total", "h").Inc()
				r.Counter("aa_total", "h").Inc()
			},
			want: []string{
				"# HELP aa_total h",
				"# TYPE aa_total counter",
				"aa_total 1",
				"# HELP zz_total h",
				"# TYPE zz_total counter",
				"zz_total 1",
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.fill(r)
			got := strings.Split(strings.TrimRight(r.RenderString(), "\n"), "\n")
			if len(got) != len(tc.want) {
				t.Fatalf("rendered %d lines, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Errorf("line %d:\n got %q\nwant %q", i, got[i], tc.want[i])
				}
			}
		})
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
}

// TestRegistrationIdempotent: same name+type returns the same metric.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h")
	b := r.Counter("c_total", "other help ignored")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type-conflicting re-registration did not panic")
		}
	}()
	r.Gauge("c_total", "h")
}

// TestDisabled: SetEnabled(false) freezes all metrics.
func TestDisabled(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_total", "h")
	g := r.Gauge("d_gauge", "h")
	h := r.Histogram("d_seconds", "h", nil)
	SetEnabled(false)
	defer SetEnabled(true)
	c.Inc()
	g.Set(5)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled instrumentation still recorded: c=%d g=%g h=%d", c.Value(), g.Value(), h.Count())
	}
}

// TestHistogramConcurrency hammers one histogram (and counter and
// gauge) from many goroutines; run under -race this is the data-race
// check, and the final counts must be exact.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "h", []float64{0.25, 0.5, 0.75})
	c := r.Counter("conc_total", "h")
	g := r.Gauge("conc_gauge", "h")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64((seed+i)%4) * 0.25) // 0, .25, .5, .75
				c.Inc()
				g.Add(1)
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %g, want %d", g.Value(), total)
	}
	// Every observation lands in some bucket; +Inf line must equal total.
	out := r.RenderString()
	if !strings.Contains(out, `conc_seconds_bucket{le="+Inf"} 16000`) {
		t.Errorf("render missing exact +Inf bucket:\n%s", out)
	}
	// Rendering while writers run must also be race-free.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.Observe(0.1)
		}
	}()
	for i := 0; i < 20; i++ {
		_ = r.RenderString()
	}
	<-done
}
