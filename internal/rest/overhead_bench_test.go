package rest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/shredder"
)

// Instrumentation-overhead benchmarks: the same work with the obs
// registry gated off and on. Their overhead_% carries the <5 %
// instrumentation budget.

// overheadInstance returns an empty one-resource instance.
func overheadInstance(b *testing.B) *core.Instance {
	b.Helper()
	in, err := core.NewInstance(config.InstanceConfig{
		Name: "bench", Version: core.Version,
		Resources: []config.ResourceConfig{{Name: "cluster", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// ingestHourlyJobs ingests n one-hour, 8-core jobs into in, one ending
// every hour of 2017, over 32 users, and returns the time the ingest
// took.
func ingestHourlyJobs(b *testing.B, in *core.Instance, n int) time.Duration {
	b.Helper()
	recs := make([]shredder.JobRecord, 0, n)
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i%8760) * time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%32), Account: "a",
			Resource: "cluster", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		})
	}
	start := time.Now()
	st, err := in.Pipeline.IngestJobRecords(recs)
	if err != nil {
		b.Fatal(err)
	}
	if st.Ingested != n {
		b.Fatalf("ingested %d of %d", st.Ingested, n)
	}
	return time.Since(start)
}

// BenchmarkObsOverhead: instrumentation cost on the ingest hot path.
// Pre-resolved metric handles keep it to one atomic op per event.
func BenchmarkObsOverhead(b *testing.B) {
	ingest := func(n int) time.Duration { return ingestHourlyJobs(b, overheadInstance(b), n) }

	defer obs.SetEnabled(true)
	ingest(min(b.N, 5000)) // warm up allocator and code paths untimed

	// Interleave disabled/enabled rounds so allocator and cache drift
	// hits both sides equally.
	var off, on time.Duration
	b.ResetTimer()
	for round := 0; round < 2; round++ {
		obs.SetEnabled(false)
		off += ingest(b.N)
		obs.SetEnabled(true)
		on += ingest(b.N)
	}
	b.StopTimer()

	b.ReportMetric(float64(2*b.N)/on.Seconds(), "jobs/s")
	// Tiny b.N runs are all noise; only report overhead when the
	// workload is large enough to mean something.
	if b.N >= 5000 && off > 0 {
		b.ReportMetric((on.Seconds()-off.Seconds())/off.Seconds()*100, "overhead_%")
	}
}

const overheadChartPath = "/api/chart?realm=Jobs&metric=total_cpu_hours&group_by=person&period=month"

// chartRound issues n authenticated chart requests carrying a foreign
// traceparent (the propagation path stays hot) and returns the wall
// time spent.
func chartRound(b *testing.B, h http.Handler, token string, n int) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		req := httptest.NewRequest("GET", overheadChartPath, nil)
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("chart status %d: %s", rec.Code, rec.Body)
		}
	}
	return time.Since(start)
}

// BenchmarkTelemetryOverhead: the full observability stack on the
// cached chart read path of a 20k-fact instance — traceparent
// adoption, the request and query spans, RED metrics and the
// slow-query log.
func BenchmarkTelemetryOverhead(b *testing.B) {
	in := overheadInstance(b)
	ingestHourlyJobs(b, in, 20000)
	if err := in.Auth.Vault().Create(auth.User{Username: "bench", Role: auth.RoleManager}, "bench-pass-123"); err != nil {
		b.Fatal(err)
	}
	sess, err := in.Auth.LoginLocal("bench", "bench-pass-123")
	if err != nil {
		b.Fatal(err)
	}
	h := newServer(in).Handler()
	b.ResetTimer()
	pct, qps := measureTelemetryOverhead(b, h, sess.Token, b.N)
	b.StopTimer()
	b.ReportMetric(qps, "queries/s")
	// Tiny b.N runs are all noise; only report overhead when the
	// workload is large enough to mean something.
	if b.N >= 200 {
		b.ReportMetric(pct, "overhead_%")
	}
}

// measureTelemetryOverhead interleaves disabled/enabled rounds of n
// requests each, alternating which side goes first, and compares the
// *fastest* round of each side: the minimum is each side's
// uncontended cost, so scheduler and GC noise on a shared box cannot
// masquerade as instrumentation overhead. Returns the overhead
// percentage and the enabled-side throughput.
func measureTelemetryOverhead(b *testing.B, h http.Handler, token string, n int) (pct, qps float64) {
	defer obs.SetEnabled(true)
	chartRound(b, h, token, min(n, 200)) // warm cache and code paths

	const rounds = 6
	minOff, minOn, onTotal := time.Duration(0), time.Duration(0), time.Duration(0)
	for round := 0; round < rounds; round++ {
		onFirst := round%2 == 1
		for half := 0; half < 2; half++ {
			enabled := onFirst == (half == 0)
			obs.SetEnabled(enabled)
			d := chartRound(b, h, token, n)
			if enabled {
				onTotal += d
				if minOn == 0 || d < minOn {
					minOn = d
				}
			} else if minOff == 0 || d < minOff {
				minOff = d
			}
		}
	}
	pct = (minOn.Seconds() - minOff.Seconds()) / minOff.Seconds() * 100
	qps = float64(rounds*n) / onTotal.Seconds()
	return pct, qps
}
