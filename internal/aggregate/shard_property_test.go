package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// shardFixture builds a warehouse holding n random jobs spread over
// several resources and an engine with the given shard count; one
// shard is the reference. The same (n, seed) always produces the
// same fact population, so a sharded and an unsharded fixture can be
// compared row for row.
func shardFixture(t testing.TB, n int, seed int64, shards int) (*warehouse.DB, *Engine, realm.Info) {
	t.Helper()
	db := warehouse.Open("shardtest")
	if _, err := jobs.Setup(db); err != nil {
		t.Fatal(err)
	}
	eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetSharding(shards)
	info := jobs.RealmInfo()
	if err := eng.Setup(info); err != nil {
		t.Fatal(err)
	}
	insertShardJobs(t, db, jobs.SchemaName, n, seed)
	return db, eng, info
}

// insertShardJobs inserts n deterministic pseudo-random jobs into one
// schema's fact table. Five resources guarantee several shards see
// rows under resource routing with 4 shards.
func insertShardJobs(t testing.TB, db *warehouse.DB, schema string, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	resources := shardResources
	users := []string{"alice", "bob", "carol", "dave"}
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
		if err := db.Upsert(schema, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
}

// shardAggSnapshot renders every row of every shard's aggregation
// tables as one sorted string list — the sharded counterpart of
// aggSnapshot. Under resource routing the shard tables partition the
// unsharded reference exactly, so the union compares equal
// string-for-string (the %v float rendering round-trips bits).
func shardAggSnapshot(t testing.TB, db *warehouse.DB, eng *Engine, info realm.Info) []string {
	t.Helper()
	var out []string
	db.View(func() error {
		for _, schema := range eng.AggSchemas(info) {
			for _, p := range Periods() {
				tab, err := db.TableIn(schema, AggTableName(info.FactTable, p))
				if err != nil {
					t.Fatal(err)
				}
				cols := tab.Columns()
				tab.Scan(func(r warehouse.Row) bool {
					var b strings.Builder
					b.WriteString(p.String())
					for _, c := range cols {
						fmt.Fprintf(&b, "|%s=%v", c, r.Get(c))
					}
					out = append(out, b.String())
					return true
				})
			}
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// diffSeriesBits compares two query results for bit-exact equality
// (group sets, aggregates, and every timeseries point) and returns a
// description of the first difference, or "" when identical.
func diffSeriesBits(a, b []Series) string {
	if len(a) != len(b) {
		return fmt.Sprintf("series count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Group != b[i].Group {
			return fmt.Sprintf("series %d group %q vs %q", i, a[i].Group, b[i].Group)
		}
		if math.Float64bits(a[i].Aggregate) != math.Float64bits(b[i].Aggregate) {
			return fmt.Sprintf("series %q aggregate %x vs %x (%g vs %g)",
				a[i].Group, math.Float64bits(a[i].Aggregate), math.Float64bits(b[i].Aggregate),
				a[i].Aggregate, b[i].Aggregate)
		}
		if len(a[i].Points) != len(b[i].Points) {
			return fmt.Sprintf("series %q point count %d vs %d", a[i].Group, len(a[i].Points), len(b[i].Points))
		}
		for j := range a[i].Points {
			pa, pb := a[i].Points[j], b[i].Points[j]
			if pa.PeriodKey != pb.PeriodKey || math.Float64bits(pa.Value) != math.Float64bits(pb.Value) {
				return fmt.Sprintf("series %q point %d: (%d, %g) vs (%d, %g)",
					a[i].Group, j, pa.PeriodKey, pa.Value, pb.PeriodKey, pb.Value)
			}
		}
	}
	return ""
}

// TestPropertyShardedRebuildBitIdentical: for random job populations,
// a 4-shard resource-routed rebuild must reproduce the unsharded
// reference bit for bit — the union of the shard tables row-exact
// against the single-table build, and every chart query (including a
// group-by that crosses shards and a resource filter that pins one
// shard) returning float-identical results.
func TestPropertyShardedRebuildBitIdentical(t *testing.T) {
	f := func(seed int64, nRecs uint8) bool {
		n := int(nRecs)
		if n == 0 {
			return true
		}
		dbRef, engRef, info := shardFixture(t, n, seed, 1)
		dbSh, engSh, _ := shardFixture(t, n, seed, 4)

		nRef, err := engRef.Reaggregate(info, []string{jobs.SchemaName})
		if err != nil {
			t.Log(err)
			return false
		}
		nSh, err := engSh.Reaggregate(info, []string{jobs.SchemaName})
		if err != nil {
			t.Log(err)
			return false
		}
		if nRef != n || nSh != n {
			t.Logf("aggregated %d (ref) / %d (sharded) facts, want %d", nRef, nSh, n)
			return false
		}

		ref := shardAggSnapshot(t, dbRef, engRef, info)
		got := shardAggSnapshot(t, dbSh, engSh, info)
		if len(ref) != len(got) {
			t.Logf("sharded union has %d agg rows, reference %d", len(got), len(ref))
			return false
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Logf("agg row %d:\n sharded   %s\n reference %s", i, got[i], ref[i])
				return false
			}
		}

		reqs := []Request{
			{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimResource, Period: Quarter},
			// Group-by user: every group spans shards, so the gather's
			// sorted fold order is what's under test here.
			{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: Year},
			{MetricID: jobs.MetricNumJobs, Period: Month},
			// Resource filter: the sharded path scans one shard only.
			{MetricID: jobs.MetricWallHours, GroupBy: jobs.DimUser, Period: Year,
				Filters: map[string]string{jobs.DimResource: "comet"}},
		}
		for _, req := range reqs {
			want, err := engRef.Query(info, req)
			if err != nil {
				t.Log(err)
				return false
			}
			have, err := engSh.Query(info, req)
			if err != nil {
				t.Log(err)
				return false
			}
			if d := diffSeriesBits(want, have); d != "" {
				t.Logf("query %+v: %s", req, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestShardedApplyFactRowsMatchesRebuild: on a sharded engine the
// incremental fold must land every batch exactly where a per-shard
// rebuild puts it (the sharded twin of TestApplyFactRowsMatchesRebuild).
func TestShardedApplyFactRowsMatchesRebuild(t *testing.T) {
	db, eng, info := shardFixture(t, 150, 21, 4)
	fact, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	cols := fact.Columns()
	var rows [][]any
	db.View(func() error {
		fact.Scan(func(r warehouse.Row) bool {
			row := make([]any, len(cols))
			for j, c := range cols {
				row[j] = r.Get(c)
			}
			rows = append(rows, row)
			return true
		})
		return nil
	})

	n, err := eng.ApplyFactRows(info, jobs.SchemaName, rows)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("folded %d rows, want 150", n)
	}
	inc := shardAggSnapshot(t, db, eng, info)

	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	full := shardAggSnapshot(t, db, eng, info)

	if len(inc) != len(full) {
		t.Fatalf("incremental produced %d agg rows, rebuild %d", len(inc), len(full))
	}
	for i := range full {
		if inc[i] != full[i] {
			t.Fatalf("row %d:\n incremental %s\n rebuild     %s", i, inc[i], full[i])
		}
	}
}

// shardResources is insertShardJobs' resource pool.
var shardResources = []string{"comet", "stampede", "bridges", "expanse", "anvil"}

// requireSameCharts fails unless both engines answer every request
// with bit-identical series.
func requireSameCharts(t *testing.T, stage string, ref, got *Engine, info realm.Info, reqs []Request) {
	t.Helper()
	for _, req := range reqs {
		want, err := ref.Query(info, req)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Query(info, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: query %+v returned nothing on the reference", stage, req)
		}
		if d := diffSeriesBits(want, have); d != "" {
			t.Fatalf("%s: query %+v: %s", stage, req, d)
		}
	}
}

// TestOneShardScanMatchesSingleShardEngine: a chart whose scatter set
// is one shard folds that shard's rows in table-scan order, which for a
// resource-filtered chart is the order the same rows have in a 1-shard
// engine's table — after a rebuild (sorted bulk load) and equally after
// a run of incremental batches (upsert order), so the two engines agree
// to the bit at every point.
func TestOneShardScanMatchesSingleShardEngine(t *testing.T) {
	const n = 400
	dbRef, engRef, info := shardFixture(t, n, 41, 1)
	_, engSh, _ := shardFixture(t, n, 41, 4)

	var reqs []Request
	for _, res := range shardResources {
		f := map[string]string{jobs.DimResource: res}
		reqs = append(reqs,
			Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: Year, Filters: f},
			Request{MetricID: jobs.MetricWallHours, Period: Month, Filters: f},
			Request{MetricID: jobs.MetricAvgWaitHours, GroupBy: jobs.DimQueue, Period: Quarter, Filters: f},
			Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimJobSize, Period: Year,
				Filters: map[string]string{jobs.DimResource: res, jobs.DimUser: "alice"}},
		)
	}

	for _, eng := range []*Engine{engRef, engSh} {
		if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
			t.Fatal(err)
		}
	}
	requireSameCharts(t, "after rebuild", engRef, engSh, info, reqs)

	for _, eng := range []*Engine{engRef, engSh} {
		if err := eng.Truncate(info); err != nil {
			t.Fatal(err)
		}
	}
	rows := factRowsPositional(t, dbRef, jobs.SchemaName, jobs.FactTable)
	for batch := 0; len(rows) > 0; batch++ {
		size := min(37, len(rows))
		for _, eng := range []*Engine{engRef, engSh} {
			if _, err := eng.ApplyFactRows(info, jobs.SchemaName, rows[:size]); err != nil {
				t.Fatal(err)
			}
		}
		rows = rows[size:]
		if batch >= 3 { // every resource has rows by now
			requireSameCharts(t, fmt.Sprintf("after batch %d", batch), engRef, engSh, info, reqs)
		}
	}
}

// TestRealmWithoutResourceDimensionUsesShardZero: with nothing to route
// by, every row of the realm lands in shard 0 — so no group spans
// shards there either — and its charts read that one shard, equal to
// the bit to a 1-shard engine's.
func TestRealmWithoutResourceDimensionUsesShardZero(t *testing.T) {
	noResource := func(shards int) (*warehouse.DB, *Engine, realm.Info) {
		db := warehouse.Open("shardtest")
		if _, err := jobs.Setup(db); err != nil {
			t.Fatal(err)
		}
		eng, err := New(db, []config.AggregationLevels{config.HubWallTime(), config.DefaultJobSize()})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSharding(shards)
		info := jobs.RealmInfo()
		var dims []realm.Dimension
		for _, d := range info.Dimensions {
			if d.ID != jobs.DimResource {
				dims = append(dims, d)
			}
		}
		info.Dimensions = dims
		if err := eng.Setup(info); err != nil {
			t.Fatal(err)
		}
		insertShardJobs(t, db, jobs.SchemaName, 300, 43)
		return db, eng, info
	}
	dbRef, engRef, info := noResource(1)
	dbSh, engSh, _ := noResource(4)
	reqs := []Request{
		{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: Year},
		{MetricID: jobs.MetricWallHours, Period: Month},
		{MetricID: jobs.MetricAvgWaitHours, GroupBy: jobs.DimQueue, Period: Quarter,
			Filters: map[string]string{jobs.DimUser: "bob"}},
	}
	requireShardZero := func(stage string) {
		t.Helper()
		for k, schema := range engSh.AggSchemas(info) {
			for _, p := range Periods() {
				rows := dbSh.Count(schema, AggTableName(info.FactTable, p))
				if (k == 0) != (rows > 0) {
					t.Fatalf("%s: shard %d %s table holds %d rows; want all rows in shard 0", stage, k, p, rows)
				}
			}
		}
	}

	rows := factRowsPositional(t, dbRef, jobs.SchemaName, jobs.FactTable)
	for len(rows) > 0 {
		size := min(64, len(rows))
		for _, eng := range []*Engine{engRef, engSh} {
			if _, err := eng.ApplyFactRows(info, jobs.SchemaName, rows[:size]); err != nil {
				t.Fatal(err)
			}
		}
		rows = rows[size:]
	}
	requireShardZero("after incremental folds")
	requireSameCharts(t, "after incremental folds", engRef, engSh, info, reqs)

	for _, eng := range []*Engine{engRef, engSh} {
		if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
			t.Fatal(err)
		}
	}
	requireShardZero("after rebuild")
	requireSameCharts(t, "after rebuild", engRef, engSh, info, reqs)
}
