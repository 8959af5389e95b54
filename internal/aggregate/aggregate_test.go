package aggregate

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

func TestPeriodKeys(t *testing.T) {
	ts := time.Date(2017, 8, 15, 13, 0, 0, 0, time.UTC)
	cases := []struct {
		p   Period
		key int64
		lbl string
	}{
		{Day, 20170815, "2017-08-15"},
		{Month, 201708, "2017-08"},
		{Quarter, 20173, "2017 Q3"},
		{Year, 2017, "2017"},
	}
	for _, c := range cases {
		if got := c.p.Key(ts); got != c.key {
			t.Errorf("%s.Key = %d, want %d", c.p, got, c.key)
		}
		if got := c.p.Label(c.key); got != c.lbl {
			t.Errorf("%s.Label = %q, want %q", c.p, got, c.lbl)
		}
	}
	// Quarter boundaries.
	for m, q := range map[time.Month]int64{1: 1, 3: 1, 4: 2, 6: 2, 7: 3, 9: 3, 10: 4, 12: 4} {
		ts := time.Date(2017, m, 1, 0, 0, 0, 0, time.UTC)
		if got := Quarter.Key(ts); got != 20170+q {
			t.Errorf("quarter of month %d = %d, want %d", m, got, 20170+q)
		}
	}
}

func TestParsePeriod(t *testing.T) {
	for _, p := range Periods() {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := Parse("fortnight"); err == nil {
		t.Error("unknown period should error")
	}
}

// fixture builds a warehouse with the jobs realm, an engine with
// Table I hub levels, and n synthetic jobs across 2017.
func fixture(t testing.TB, n int, seed int64) (*warehouse.DB, *Engine, realm.Info) {
	t.Helper()
	db := warehouse.Open("test")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	resources := []string{"comet", "stampede"}
	users := []string{"alice", "bob", "carol"}
	for i := 0; i < n; i++ {
		end := time.Date(2017, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), 0, 0, 0, time.UTC)
		wall := time.Duration(1+rng.Intn(40*3600)) * time.Second
		rec := shredder.JobRecord{
			LocalJobID: int64(i + 1),
			User:       users[rng.Intn(len(users))],
			Account:    "acct",
			Resource:   resources[rng.Intn(len(resources))],
			Queue:      "batch",
			Nodes:      1,
			Cores:      int64(1 + rng.Intn(64)),
			Submit:     end.Add(-wall - time.Hour),
			Start:      end.Add(-wall),
			End:        end,
		}
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	return db, eng, info
}

func TestReaggregateAndQuerySum(t *testing.T) {
	db, eng, info := fixture(t, 200, 1)
	n, err := eng.Reaggregate(info, []string{jobs.SchemaName})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("aggregated %d facts, want 200", n)
	}
	// Total CPU hours from the aggregation tables must equal a direct
	// fact-table sum.
	series, err := eng.Query(info, Request{MetricID: jobs.MetricCPUHours, Period: Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("got %d series", len(series))
	}
	fact, _ := db.TableIn(jobs.SchemaName, jobs.FactTable)
	var direct float64
	db.View(func() error {
		fact.Scan(func(r warehouse.Row) bool {
			direct += r.Float(jobs.ColCPUHours)
			return true
		})
		return nil
	})
	if math.Abs(series[0].Aggregate-direct) > 1e-6*math.Max(1, direct) {
		t.Errorf("agg %g != direct %g", series[0].Aggregate, direct)
	}
	if series[0].N != 200 {
		t.Errorf("N = %d", series[0].N)
	}
}

func TestQueryGroupByAndFilters(t *testing.T) {
	db, eng, info := fixture(t, 300, 2)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	byRes, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: Year})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range byRes {
		total += s.Aggregate
	}
	if total != 300 {
		t.Errorf("grouped job counts sum to %g, want 300", total)
	}
	// Filtering to one resource must match that group's series.
	want := byRes[0]
	filtered, err := eng.Query(info, Request{
		MetricID: jobs.MetricNumJobs, Period: Year,
		Filters: map[string]string{jobs.DimResource: want.Group},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || filtered[0].Aggregate != want.Aggregate {
		t.Errorf("filter mismatch: %v vs %v", filtered, want)
	}
	_ = db
}

func TestQueryAvgMinMax(t *testing.T) {
	db, eng, info := fixture(t, 150, 3)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	avg, err := eng.Query(info, Request{MetricID: jobs.MetricAvgJobSize, Period: Year})
	if err != nil {
		t.Fatal(err)
	}
	maxS, err := eng.Query(info, Request{MetricID: jobs.MetricMaxJobSize, Period: Year})
	if err != nil {
		t.Fatal(err)
	}
	fact, _ := db.TableIn(jobs.SchemaName, jobs.FactTable)
	var sum, mx float64
	var n int64
	db.View(func() error {
		fact.Scan(func(r warehouse.Row) bool {
			v := r.Float(jobs.ColCores)
			sum += v
			if v > mx {
				mx = v
			}
			n++
			return true
		})
		return nil
	})
	if math.Abs(avg[0].Aggregate-sum/float64(n)) > 1e-9 {
		t.Errorf("avg %g != %g", avg[0].Aggregate, sum/float64(n))
	}
	if maxS[0].Aggregate != mx {
		t.Errorf("max %g != %g", maxS[0].Aggregate, mx)
	}
}

func TestQueryPeriodRange(t *testing.T) {
	_, eng, info := fixture(t, 400, 4)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	h1, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, Period: Month, StartKey: 201701, EndKey: 201706})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, Period: Month, StartKey: 201707, EndKey: 201712})
	if err != nil {
		t.Fatal(err)
	}
	if h1[0].Aggregate+h2[0].Aggregate != 400 {
		t.Errorf("halves sum to %g", h1[0].Aggregate+h2[0].Aggregate)
	}
	for _, pt := range h1[0].Points {
		if pt.PeriodKey < 201701 || pt.PeriodKey > 201706 {
			t.Errorf("point outside range: %d", pt.PeriodKey)
		}
	}
}

func TestWallTimeBucketsTableI(t *testing.T) {
	_, eng, info := fixture(t, 500, 5)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	series, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: Year})
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	var total float64
	for _, s := range series {
		labels[s.Group] = true
		total += s.Aggregate
	}
	if total != 500 {
		t.Errorf("bucketed total %g", total)
	}
	// All labels must come from the configured hub levels.
	hub := config.HubWallTime()
	valid := map[string]bool{config.OverflowBucket: true}
	for _, b := range hub.Buckets {
		valid[b.Label] = true
	}
	for l := range labels {
		if !valid[l] {
			t.Errorf("unexpected bucket label %q", l)
		}
	}
}

func TestReaggregateAfterLevelChange(t *testing.T) {
	db, eng, info := fixture(t, 300, 6)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: Year})
	if err != nil {
		t.Fatalf("query before the level change: %v", err)
	}

	// Admin switches the hub to Instance B's coarser levels and
	// re-aggregates; the same facts land in different buckets, with no
	// data lost.
	eng, err = New(db, []config.AggregationLevels{config.InstanceBWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.Reaggregate(info, []string{jobs.SchemaName})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("reaggregated %d", n)
	}
	after, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: Year})
	if err != nil {
		t.Fatalf("query after the level change: %v", err)
	}

	sum := func(ss []Series) (tot float64) {
		for _, s := range ss {
			tot += s.Aggregate
		}
		return
	}
	if sum(before) != 300 || sum(after) != 300 {
		t.Errorf("totals changed: %g -> %g", sum(before), sum(after))
	}
	bLabels := map[string]bool{}
	for _, s := range after {
		bLabels[s.Group] = true
	}
	if bLabels["0-60 minutes"] {
		t.Error("hub label leaked into instance-B aggregation")
	}
}

func TestTopN(t *testing.T) {
	series := []Series{
		{Group: "a", Aggregate: 10},
		{Group: "b", Aggregate: 30},
		{Group: "c", Aggregate: 20},
	}
	top := TopN(series, 2)
	if len(top) != 2 || top[0].Group != "b" || top[1].Group != "c" {
		t.Errorf("TopN = %+v", top)
	}
	if got := TopN(series, 0); len(got) != 3 {
		t.Errorf("TopN(0) should return all, got %d", len(got))
	}
	if got := TopN(series, 10); len(got) != 3 {
		t.Errorf("TopN(10) should return all, got %d", len(got))
	}
}

func TestDrillDown(t *testing.T) {
	_, eng, info := fixture(t, 200, 8)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	byRes, _ := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: Year})
	into, err := eng.DrillDown(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: Year},
		jobs.DimUser, byRes[0].Group)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range into {
		total += s.Aggregate
	}
	if total != byRes[0].Aggregate {
		t.Errorf("drill-down total %g != group %g", total, byRes[0].Aggregate)
	}
}

func TestQueryErrors(t *testing.T) {
	_, eng, info := fixture(t, 10, 9)
	if _, err := eng.Query(info, Request{MetricID: "nope"}); err == nil {
		t.Error("unknown metric must error")
	}
	if _, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, GroupBy: "nope"}); err == nil {
		t.Error("unknown group-by must error")
	}
	if _, err := eng.Query(info, Request{MetricID: jobs.MetricNumJobs, Filters: map[string]string{"nope": "x"}}); err == nil {
		t.Error("unknown filter must error")
	}
}

func TestEngineConstructorValidation(t *testing.T) {
	db := warehouse.Open("x")
	if _, err := New(db, []config.AggregationLevels{{Dimension: "d"}}); err == nil {
		t.Error("invalid levels must be rejected")
	}
	if _, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.HubWallTime()}); err == nil {
		t.Error("duplicate dimension must be rejected")
	}
}

func TestFormatSeriesTable(t *testing.T) {
	series := []Series{
		{Group: "comet", Points: []Point{{201701, 10}, {201702, 20}}, Aggregate: 30},
		{Group: "stampede", Points: []Point{{201701, 5}}, Aggregate: 5},
	}
	out := FormatSeriesTable(Month, series)
	if !strings.Contains(out, "comet") || !strings.Contains(out, "2017-01") || !strings.Contains(out, "TOTAL") {
		t.Errorf("table missing parts:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing period should render as -")
	}
}

func TestAggSchemaNotSetUp(t *testing.T) {
	db := warehouse.Open("x")
	realm.Setup(db, jobs.RealmInfo())
	eng, _ := New(db, nil)
	info := jobs.RealmInfo()
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err == nil {
		t.Error("aggregating before Setup must error")
	}
}
