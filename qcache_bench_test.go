// Query-result cache benchmarks (EXP-B10): the read hot path of a
// busy hub. Cold measures the uncached engine query, hot the cache
// hit, coalesced a 16-way thundering herd on a cold key. The flag
// -emit-bench additionally runs all three via testing.Benchmark and
// writes BENCH_2.json with the measured hot/cold speedup (make bench).
package xdmodfed

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/rest"
	"xdmodfed/internal/warehouse"
)

var emitBench = flag.Bool("emit-bench", false, "run the emitter tests and write benchmark results to BENCH_*.json")

// chartServer builds a REST server over an instance holding queryFacts
// aggregated job facts, with the query cache at its defaults.
func chartServer(b testing.TB) *rest.Server {
	b.Helper()
	in := benchInstance(b)
	st, err := in.Pipeline.IngestJobRecords(benchRecords(queryFacts))
	if err != nil {
		b.Fatal(err)
	}
	if st.Ingested != queryFacts {
		b.Fatalf("ingested %d of %d", st.Ingested, queryFacts)
	}
	return rest.NewSatelliteServer(&core.Satellite{Instance: in})
}

// invalidateCharts moves the warehouse's root epoch, so the next chart
// request misses the query cache: dropping a schema bumps it. It is a
// warehouse write (two binlog events), so benchmarks call it with the
// timer stopped.
func invalidateCharts(db *warehouse.DB) {
	db.EnsureSchema("invalidate")
	if _, err := db.ApplyAll([]warehouse.Event{{Kind: warehouse.EvDropSchema, Schema: "invalidate"}}); err != nil {
		panic(err)
	}
}

// chartReq is the repeated dashboard query: monthly CPU hours by user.
var chartReq = aggregate.Request{
	MetricID: jobs.MetricCPUHours,
	GroupBy:  jobs.DimUser,
	Period:   aggregate.Month,
}

// BenchmarkChartQueryCold (EXP-B10): every iteration bumps the
// warehouse epoch first, untimed, so the cache never hits and each
// query pays the full aggregation-table walk.
func BenchmarkChartQueryCold(b *testing.B) {
	srv := chartServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		invalidateCharts(srv.Instance.DB)
		b.StartTimer()
		if _, _, err := srv.QuerySeries(context.Background(), "Jobs", chartReq, "", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChartQueryHot (EXP-B10): the same query repeated with no
// intervening writes — the steady state of a dashboard full of users
// looking at the same charts.
func BenchmarkChartQueryHot(b *testing.B) {
	srv := chartServer(b)
	if _, _, err := srv.QuerySeries(context.Background(), "Jobs", chartReq, "", 0); err != nil {
		b.Fatal(err) // prime the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srv.QuerySeries(context.Background(), "Jobs", chartReq, "", 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st, ok := srv.CacheStats(); !ok || st.Hits < uint64(b.N) {
		b.Fatalf("stats %+v: %d iterations were not all cache hits", st, b.N)
	}
}

// BenchmarkChartQueryCoalesced (EXP-B10): per round, 16 goroutines
// request the same cold key concurrently; coalescing must collapse
// them onto a single underlying engine query per round.
func BenchmarkChartQueryCoalesced(b *testing.B) {
	const herd = 16
	srv := chartServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		invalidateCharts(srv.Instance.DB)
		b.StartTimer()
		var wg sync.WaitGroup
		wg.Add(herd)
		for g := 0; g < herd; g++ {
			go func() {
				defer wg.Done()
				if _, _, err := srv.QuerySeries(context.Background(), "Jobs", chartReq, "", 0); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	st, ok := srv.CacheStats()
	if !ok {
		b.Fatal("cache disabled")
	}
	if st.Fills != uint64(b.N) {
		b.Fatalf("%d rounds performed %d engine queries; coalescing failed", b.N, st.Fills)
	}
	b.ReportMetric(float64(st.Coalesced)/float64(b.N), "coalesced/round")
}

// TestEmitBenchJSON runs the chart-query benchmarks under
// testing.Benchmark and records the results (and the hot/cold
// speedup) in BENCH_2.json. Gated behind -emit-bench so a plain
// `go test` stays fast; `make bench` passes the flag.
func TestEmitBenchJSON(t *testing.T) {
	if !*emitBench {
		t.Skip("pass -emit-bench to run the query-cache benchmarks and write BENCH_2.json")
	}
	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	run := func(name string, fn func(*testing.B)) (row, testing.BenchmarkResult) {
		res := testing.Benchmark(fn)
		return row{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
		}, res
	}
	cold, coldRes := run("BenchmarkChartQueryCold", BenchmarkChartQueryCold)
	hot, hotRes := run("BenchmarkChartQueryHot", BenchmarkChartQueryHot)
	coalesced, _ := run("BenchmarkChartQueryCoalesced", BenchmarkChartQueryCoalesced)

	speedup := 0.0
	if hotRes.NsPerOp() > 0 {
		speedup = float64(coldRes.NsPerOp()) / float64(hotRes.NsPerOp())
	}
	out := map[string]any{
		"go":            runtime.Version(),
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"benchmarks":    []row{cold, hot, coalesced},
		"hot_speedup_x": speedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_2.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %.0f ns/op, hot %.0f ns/op, speedup %.1fx", cold.NsPerOp, hot.NsPerOp, speedup)
	if speedup < 10 {
		t.Errorf("hot/cold speedup %.1fx, want >= 10x", speedup)
	}
}
