// Hub aggregation benchmarks (EXP-B11): the cost of bringing charts
// current after replicated data lands. FirstQueryAfterBatch measures
// one tight batch (a single job) landing on a hub that already holds
// queryFacts facts, then the first chart query — incrementally folded
// (what the hub does) versus a full federation rebuild after the batch.
// ParallelReaggregate measures the full rebuild as the scan worker
// count grows. The -emit-bench flag (shared with the query-cache
// benches) writes BENCH_3.json with the measured speedups (make bench).
package xdmodfed

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// aggFeeder couples a hub to a feeder warehouse standing in for a
// tight satellite: inserts land in the feeder's binlog and ship() moves
// them to the hub as one replication batch.
type aggFeeder struct {
	hub    *core.Hub
	sat    *warehouse.DB
	rw     *replicate.Rewriter
	pos    uint64
	nextID int64
}

// newAggFeeder builds a hub holding queryFacts replicated job facts
// with clean aggregates, ready to measure the next batch.
func newAggFeeder(b *testing.B) *aggFeeder {
	b.Helper()
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "bench-hub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := hub.Register("bench-sat"); err != nil {
		b.Fatal(err)
	}
	f := &aggFeeder{
		hub: hub,
		sat: warehouse.Open("bench-sat"),
		rw:  replicate.NewRewriter("bench-sat", replicate.Filter{}),
	}
	if _, err := jobs.Setup(f.sat); err != nil {
		b.Fatal(err)
	}
	for _, rec := range benchRecords(queryFacts) {
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			b.Fatal(err)
		}
	}
	f.nextID = queryFacts + 1
	f.ship(b)
	// Prime: one query brings the aggregates current.
	if _, err := f.hub.Query("Jobs", chartReq); err != nil {
		b.Fatal(err)
	}
	return f
}

// insertJob adds one more job to the feeder satellite.
func (f *aggFeeder) insertJob(b *testing.B) {
	b.Helper()
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	end := base.Add(time.Duration(f.nextID%8760) * time.Hour)
	rec := shredder.JobRecord{
		LocalJobID: f.nextID, User: fmt.Sprintf("u%d", f.nextID%32), Account: "a",
		Resource: "bench", Queue: "batch", Nodes: 1, Cores: 8,
		Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
	}
	f.nextID++
	row, err := jobs.FactFromRecord(rec, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
		b.Fatal(err)
	}
}

// ship replicates everything new in the feeder's binlog to the hub as
// one ApplyBatch.
func (f *aggFeeder) ship(b *testing.B) {
	b.Helper()
	evs, err := f.sat.Binlog().ReadFrom(f.pos, 0)
	if err != nil {
		b.Fatal(err)
	}
	out, upTo := f.rw.ProcessBatch(evs)
	if err := f.hub.ApplyBatch("bench-sat", upTo, out); err != nil {
		b.Fatal(err)
	}
	f.pos = upTo
}

// benchFirstQuery measures one replication batch of a single job
// landing on a warm hub followed immediately by a chart query — the
// freshness path a dashboard user hits right after data arrives. With
// rebuild set, a full AggregateFederation runs between the two.
func benchFirstQuery(b *testing.B, rebuild bool) {
	f := newAggFeeder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f.insertJob(b) // satellite-side work, not hub cost
		b.StartTimer()
		f.ship(b)
		if rebuild {
			if _, err := f.hub.AggregateFederation(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.hub.Query("Jobs", chartReq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFirstQueryAfterBatchIncremental (EXP-B11): the batch folds
// into the aggregation tables at apply time, so the query pays
// O(batch), not O(all facts).
func BenchmarkFirstQueryAfterBatchIncremental(b *testing.B) { benchFirstQuery(b, false) }

// BenchmarkFirstQueryAfterBatchRebuild (EXP-B11 baseline): the batch
// is followed by a full rebuild that re-aggregates all queryFacts
// facts before the query.
func BenchmarkFirstQueryAfterBatchRebuild(b *testing.B) { benchFirstQuery(b, true) }

// benchParallelReaggregate measures a full rebuild over a 4-satellite
// federation with the given number of scan workers.
func benchParallelReaggregate(b *testing.B, workers int) {
	const nSats, rowsPerSat = 4, 5000
	hub := warehouse.Open("hub")
	var schemas []string
	for s := 0; s < nSats; s++ {
		schema := replicate.HubSchema(fmt.Sprintf("sat%d", s))
		sch := hub.EnsureSchema(schema)
		if _, err := sch.EnsureTable(jobs.Def()); err != nil {
			b.Fatal(err)
		}
		for _, rec := range benchRecords(rowsPerSat) {
			rec.Resource = schema
			row, _ := jobs.FactFromRecord(rec, nil)
			if err := hub.Insert(schema, jobs.FactTable, row); err != nil {
				b.Fatal(err)
			}
		}
		schemas = append(schemas, schema)
	}
	eng, err := aggregate.New(hub, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		b.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := eng.Reaggregate(info, schemas)
		if err != nil {
			b.Fatal(err)
		}
		if n != nSats*rowsPerSat {
			b.Fatalf("aggregated %d", n)
		}
	}
	b.ReportMetric(float64(nSats*rowsPerSat)*float64(b.N)/b.Elapsed().Seconds(), "facts/s")
}

// BenchmarkParallelReaggregate (EXP-B11): full-rebuild wall clock as
// the scan worker count grows. Scans are CPU-bound, so the speedup
// tracks available cores.
func BenchmarkParallelReaggregate(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchParallelReaggregate(b, workers)
		})
	}
}

// TestEmitAggBenchJSON runs the aggregation benchmarks under
// testing.Benchmark and records the results in BENCH_3.json: the
// incremental-vs-rebuild first-query-after-batch speedup and the
// parallel-rebuild scaling. Gated behind -emit-bench so a plain
// `go test` stays fast; `make bench` passes the flag.
func TestEmitAggBenchJSON(t *testing.T) {
	if !*emitBench {
		t.Skip("pass -emit-bench to run the aggregation benchmarks and write BENCH_3.json")
	}
	type row struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	var rows []row
	run := func(name string, fn func(*testing.B)) testing.BenchmarkResult {
		res := testing.Benchmark(fn)
		rows = append(rows, row{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
		})
		return res
	}
	inc := run("BenchmarkFirstQueryAfterBatchIncremental", BenchmarkFirstQueryAfterBatchIncremental)
	reb := run("BenchmarkFirstQueryAfterBatchRebuild", BenchmarkFirstQueryAfterBatchRebuild)
	w1 := run("BenchmarkParallelReaggregate/workers=1", func(b *testing.B) { benchParallelReaggregate(b, 1) })
	w2 := run("BenchmarkParallelReaggregate/workers=2", func(b *testing.B) { benchParallelReaggregate(b, 2) })
	w4 := run("BenchmarkParallelReaggregate/workers=4", func(b *testing.B) { benchParallelReaggregate(b, 4) })

	ratio := func(base, n testing.BenchmarkResult) float64 {
		if n.NsPerOp() <= 0 {
			return 0
		}
		return float64(base.NsPerOp()) / float64(n.NsPerOp())
	}
	incSpeedup := ratio(reb, inc)
	par2 := ratio(w1, w2)
	par4 := ratio(w1, w4)
	out := map[string]any{
		"go":                    runtime.Version(),
		"cpus":                  runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"facts":                 queryFacts,
		"benchmarks":            rows,
		"incremental_speedup_x": incSpeedup,
		"parallel_speedup_2w_x": par2,
		"parallel_speedup_4w_x": par4,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_3.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("first query after batch: incremental %.0f ns/op vs rebuild %.0f ns/op (%.1fx); parallel rebuild 2w %.2fx, 4w %.2fx on %d CPU(s)",
		float64(inc.NsPerOp()), float64(reb.NsPerOp()), incSpeedup, par2, par4, runtime.NumCPU())
	if incSpeedup < 10 {
		t.Errorf("incremental first-query speedup %.1fx, want >= 10x", incSpeedup)
	}
	// Scan parallelism needs real cores to show up; on a single-CPU
	// host the numbers are recorded but not asserted.
	if runtime.NumCPU() > 1 && par2 <= 1.0 {
		t.Errorf("parallel rebuild with 2 workers is not faster than 1 (%.2fx) on %d CPUs", par2, runtime.NumCPU())
	}
}
