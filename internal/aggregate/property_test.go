package aggregate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// TestPropertyQueryMatchesDirectComputation: for random job
// populations, every metric answered from the aggregation tables must
// equal the same question answered by scanning raw facts — summed,
// counted, averaged, and min/maxed, grouped by resource.
func TestPropertyQueryMatchesDirectComputation(t *testing.T) {
	metrics := []struct {
		id     string
		column string
		fn     warehouse.AggFunc
		scale  float64
	}{
		{jobs.MetricCPUHours, jobs.ColCPUHours, warehouse.AggSum, 1},
		{jobs.MetricNumJobs, "", warehouse.AggCount, 1},
		{jobs.MetricAvgJobSize, jobs.ColCores, warehouse.AggAvg, 1},
		{jobs.MetricMaxJobSize, jobs.ColCores, warehouse.AggMax, 1},
		{jobs.MetricWallHours, jobs.ColWallSec, warehouse.AggSum, 1.0 / 3600},
	}
	f := func(seed int64, nRecs uint8) bool {
		if nRecs == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		db := warehouse.Open("p")
		realm.Setup(db, jobs.RealmInfo())
		eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
		if err != nil {
			return false
		}
		info := jobs.RealmInfo()
		if err := eng.Setup(info); err != nil {
			return false
		}
		resources := []string{"r1", "r2", "r3"}
		for i := 0; i < int(nRecs); i++ {
			end := time.Date(2017, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, 0, time.UTC)
			wall := time.Duration(1+rng.Intn(60*3600)) * time.Second
			rec := shredder.JobRecord{
				LocalJobID: int64(i + 1), User: "u", Account: "a",
				Resource: resources[rng.Intn(len(resources))], Queue: "q",
				Nodes: 1, Cores: int64(1 + rng.Intn(128)),
				Submit: end.Add(-wall - time.Minute), Start: end.Add(-wall), End: end,
			}
			row, err := jobs.FactFromRecord(rec, nil)
			if err != nil {
				return false
			}
			if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
				return false
			}
		}
		if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
			return false
		}

		fact, _ := db.TableIn(jobs.SchemaName, jobs.FactTable)
		for _, m := range metrics {
			series, err := eng.Query(info, Request{MetricID: m.id, GroupBy: jobs.DimResource, Period: Year})
			if err != nil {
				return false
			}
			for _, s := range series {
				var sum, mx float64
				var n int64
				first := true
				db.View(func() error {
					fact.Scan(func(r warehouse.Row) bool {
						if r.String(jobs.ColResource) != s.Group {
							return true
						}
						v := r.Float(m.column)
						if m.fn == warehouse.AggCount {
							v = 1
						}
						sum += v
						if first || v > mx {
							mx = v
						}
						first = false
						n++
						return true
					})
					return nil
				})
				var want float64
				switch m.fn {
				case warehouse.AggSum, warehouse.AggCount:
					want = sum * m.scale
				case warehouse.AggAvg:
					want = sum / float64(n) * m.scale
				case warehouse.AggMax:
					want = mx * m.scale
				}
				if math.Abs(s.Aggregate-want) > 1e-6*math.Max(1, math.Abs(want)) {
					t.Logf("metric %s group %s: agg %g direct %g", m.id, s.Group, s.Aggregate, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTimeseriesSumsToAggregate: for SUM/COUNT metrics, the
// sum of a series' timeseries points equals its range aggregate.
func TestPropertyTimeseriesSumsToAggregate(t *testing.T) {
	f := func(seed int64, nRecs uint8) bool {
		if nRecs == 0 {
			return true
		}
		_, eng, info := propFixture(t, int(nRecs), seed)
		for _, p := range Periods() {
			series, err := eng.Query(info, Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimResource, Period: p})
			if err != nil {
				return false
			}
			for _, s := range series {
				var sum float64
				for _, pt := range s.Points {
					sum += pt.Value
				}
				if math.Abs(sum-s.Aggregate) > 1e-6*math.Max(1, math.Abs(s.Aggregate)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// propFixture builds an aggregated fixture for property functions.
func propFixture(t *testing.T, n int, seed int64) (*warehouse.DB, *Engine, realm.Info) {
	t.Helper()
	db, eng, info := fixture(t, n, seed)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	return db, eng, info
}
