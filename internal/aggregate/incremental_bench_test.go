package aggregate

import (
	"fmt"
	"runtime"
	"testing"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

// xsedeFactRows returns n consecutive job facts of one XSEDE resource
// as positional fact rows — what a satellite's binlog carries of one
// accounting log, and so what one member's batches look like to the
// hub's incremental fold: the year's months in order, many users, the
// resource's queues and the job-size and wall-time spread of Figure 1.
func xsedeFactRows(tb testing.TB, n int) [][]any {
	tb.Helper()
	model := workload.XSEDE2017Models()[0]
	weight := 0.0
	for _, w := range model.MonthlyWeight {
		weight += w
	}
	recs := workload.GenerateJobs(model, int(float64(n)/weight)+2, 7)
	if len(recs) < n {
		tb.Fatalf("generator made %d jobs, need %d", len(recs), n)
	}
	conv := workload.SUConverter2017()
	rows := make([][]any, n)
	for i := range rows {
		row, err := jobs.FactRowFromRecord(recs[i], conv)
		if err != nil {
			tb.Fatal(err)
		}
		rows[i] = row
	}
	return rows
}

// warmJobsEngine returns a Jobs engine under the hub's levels whose
// aggregation tables already hold the fold of warm.
func warmJobsEngine(tb testing.TB, warm [][]any) (*Engine, realm.Info) {
	tb.Helper()
	db := warehouse.Open("foldbench")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		tb.Fatal(err)
	}
	eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		tb.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.ApplyFactRows(info, jobs.SchemaName, warm); err != nil {
		tb.Fatal(err)
	}
	return eng, info
}

// foldMallocs folds batch into eng and returns the heap objects the
// fold allocated.
func foldMallocs(tb testing.TB, eng *Engine, info realm.Info, batch [][]any) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := eng.ApplyFactRows(info, jobs.SchemaName, batch)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// rowsWritten returns the aggregation rows a fold of batch writes, over
// all periods: one per group of the batch, new or replacing a stored
// row.
func rowsWritten(tb testing.TB, eng *Engine, info realm.Info, batch [][]any) int {
	tb.Helper()
	fact, err := eng.db.TableIn(jobs.SchemaName, info.FactTable)
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := fact.RowsChunk(batch)
	if err != nil {
		tb.Fatal(err)
	}
	codec := newAggCodec(info)
	fb := newFoldBatch(codec, len(batch))
	if err := eng.eachFact(info, ch, codec.l, nil, nil, fb.add); err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, groups := range fb.groups {
		n += len(groups)
	}
	return n
}

// BenchmarkIncrementalFold folds one batch of XSEDE-shaped job facts
// into an engine warm with the 4 500 facts before it (the pipeline
// benchmark's backfill history): a trickle-sized batch, where the
// per-batch fixed costs show, and a backfill-sized one. Every iteration
// folds the same batch into a fresh warm engine (built off the clock),
// so the share of groups that already exist is the same each time.
// rows/fact, the aggregation rows written per fact, is the unit of work
// behind ns/fact.
func BenchmarkIncrementalFold(b *testing.B) {
	const warm = 4500
	for _, n := range []int{512, 5000} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			rows := xsedeFactRows(b, warm+n)
			eng, info := warmJobsEngine(b, rows[:warm])
			written := rowsWritten(b, eng, info, rows[warm:])
			b.ResetTimer()
			var mallocs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng, info := warmJobsEngine(b, rows[:warm])
				b.StartTimer()
				mallocs += foldMallocs(b, eng, info, rows[warm:])
			}
			facts := float64(b.N * n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/facts, "ns/fact")
			b.ReportMetric(float64(mallocs)/facts, "allocs/fact")
			b.ReportMetric(float64(written)/float64(n), "rows/fact")
		})
	}
}
