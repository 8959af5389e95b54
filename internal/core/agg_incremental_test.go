package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// hubAggSnapshot renders every aggregation-table row of one realm as a
// sorted string list, for exact-equality comparison between the
// incremental-fold and full-rebuild paths.
func hubAggSnapshot(t *testing.T, hub *Hub, realmName string) []string {
	t.Helper()
	info, ok := hub.Registry.Get(realmName)
	if !ok {
		t.Fatalf("no realm %q", realmName)
	}
	var out []string
	hub.DB.View(func() error {
		for _, p := range aggregate.Periods() {
			tab, err := hub.DB.TableIn(aggregate.AggSchema(info), aggregate.AggTableName(info.FactTable, p))
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
		return nil
	})
	sort.Strings(out)
	return out
}

// TestIncrementalFoldMatchesRebuild is the equivalence property behind
// the incremental path: for randomized mixes of replicated job inserts
// (folded incrementally) and storage upserts (updates force the
// dirty/rebuild path), with chart queries racing the batches, the
// aggregation tables the hub maintains are bit-identical to what a
// full rebuild computes from the raw replicated data. Run under -race
// this also exercises the fold/rebuild coordination concurrently.
func TestIncrementalFoldMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFoldEquivalence(t, seed) })
	}
}

func runFoldEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("sat"); err != nil {
		t.Fatal(err)
	}

	// Feeder warehouse standing in for a satellite: inserts land in its
	// binlog and ship to the hub like a tight sender would.
	sat := warehouse.Open("sat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	stTab, err := realm.Setup(sat, storage.RealmInfo())
	if err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("sat", replicate.Filter{})
	var pos uint64
	applyNext := func() {
		evs, err := sat.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, upTo := rw.ProcessBatch(evs)
		if err := hub.ApplyBatch("sat", upTo, out); err != nil {
			t.Fatal(err)
		}
		pos = upTo
	}

	// Readers hammer both realms while batches land, forcing rebuilds of
	// dirty realms to race in-flight folds.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, q := range []struct{ realm, metric string }{
		{jobs.RealmInfo().Name, jobs.MetricNumJobs},
		{storage.RealmInfo().Name, storage.MetricFileCount},
	} {
		wg.Add(1)
		go func(realmName, metric string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := hub.Query(realmName, aggregate.Request{MetricID: metric, Period: aggregate.Year}); err != nil {
					t.Error(err)
					return
				}
			}
		}(q.realm, q.metric)
	}

	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	jobsInserted := 0
	var nextID int64 = 1
	for round := 0; round < 25; round++ {
		for n := 1 + rng.Intn(5); n > 0; n-- {
			// Distinct end times per fact keep last_* deterministic.
			end := base.Add(time.Duration(nextID) * 37 * time.Hour)
			wall := time.Duration(1+rng.Intn(7200)) * time.Second
			rec := shredder.JobRecord{
				LocalJobID: nextID, User: fmt.Sprintf("user%d", rng.Intn(4)), Account: "acct",
				Resource: "cluster", Queue: "batch", Nodes: 1, Cores: int64(1 + rng.Intn(16)),
				Submit: end.Add(-wall - time.Hour), Start: end.Add(-wall), End: end,
			}
			row, err := jobs.FactFromRecord(rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sat.Upsert(jobs.SchemaName, jobs.FactTable, row); err != nil {
				t.Fatal(err)
			}
			nextID++
			jobsInserted++
		}
		if rng.Float64() < 0.5 {
			// Storage snapshots collide on (resource, user, day): the
			// second sample of a day is an update, which the fold cannot
			// express — the realm goes dirty and rebuilds on next read.
			ts := time.Date(2017, 3, 1+rng.Intn(3), rng.Intn(24), round, 0, 0, time.UTC)
			snap := storage.Snapshot{
				Resource: "fs1", ResourceType: "persistent", Mountpoint: "/home",
				User: fmt.Sprintf("u%d", rng.Intn(3)), PI: "pi",
				Timestamp: ts, FileCount: int64(1 + rng.Intn(1000)),
				LogicalBytes: int64(rng.Intn(1 << 30)), PhysicalBytes: int64(rng.Intn(1 << 30)),
				SoftThreshold: 1 << 30, HardThreshold: 1 << 31,
			}
			if err := sat.Do(func() error { return stTab.UpsertRow(storage.FactValues(snap)) }); err != nil {
				t.Fatal(err)
			}
		}
		applyNext()
		if rng.Float64() < 0.3 {
			if _, err := hub.Query(jobs.RealmInfo().Name, aggregate.Request{MetricID: jobs.MetricCPUHours, Period: aggregate.Month}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Bring any dirty realm current the way routine reads do...
	if err := hub.EnsureAggregated(); err != nil {
		t.Fatal(err)
	}
	incJobs := hubAggSnapshot(t, hub, jobs.RealmInfo().Name)
	incStorage := hubAggSnapshot(t, hub, storage.RealmInfo().Name)

	// ...then force the full rebuild and compare: identical tables.
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	fullJobs := hubAggSnapshot(t, hub, jobs.RealmInfo().Name)
	fullStorage := hubAggSnapshot(t, hub, storage.RealmInfo().Name)

	compare := func(realmName string, inc, full []string) {
		if len(inc) != len(full) {
			t.Fatalf("%s: incremental kept %d agg rows, rebuild computed %d", realmName, len(inc), len(full))
		}
		for i := range full {
			if inc[i] != full[i] {
				t.Fatalf("%s row %d differs:\n incremental %s\n rebuild     %s", realmName, i, inc[i], full[i])
			}
		}
	}
	compare("Jobs", incJobs, fullJobs)
	compare("Storage", incStorage, fullStorage)

	series, err := hub.Query(jobs.RealmInfo().Name, aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range series {
		total += s.Aggregate
	}
	if total != float64(jobsInserted) {
		t.Fatalf("hub sees %g jobs, satellite sent %d", total, jobsInserted)
	}
	if st := hub.Status(); st.Dirty {
		t.Fatalf("hub still dirty after full rebuild: %v", st.DirtyRealms)
	}
}

// TestIncrementalFoldServesWithoutRebuild: after an insert-only batch,
// the aggregates are already current — the realm is clean, and a query
// that skips EnsureAggregated (no rebuild possible) sees the new facts.
func TestIncrementalFoldServesWithoutRebuild(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("sat")
	sat := warehouse.Open("sat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		rec := shredder.JobRecord{
			LocalJobID: int64(i + 1), User: "u", Account: "a",
			Resource: "r", Queue: "q", Nodes: 1, Cores: 4,
			Submit: base, Start: base, End: base.Add(time.Duration(i+1) * time.Hour),
		}
		row, err := jobs.FactFromRecord(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	rw := replicate.NewRewriter("sat", replicate.Filter{})
	evs, err := sat.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, upTo := rw.ProcessBatch(evs)
	if err := hub.ApplyBatch("sat", upTo, out); err != nil {
		t.Fatal(err)
	}

	if st := hub.Status(); st.Dirty {
		t.Fatalf("insert-only batch left realms dirty: %v", st.DirtyRealms)
	}
	// Bypass the hub's EnsureAggregated wrapper: the aggregation tables
	// must already hold the batch, proving it was folded at apply time.
	series, err := hub.Instance.Query(jobs.RealmInfo().Name, aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Aggregate != 10 {
		t.Fatalf("aggregates after fold = %+v, want 10 jobs", series)
	}

	// Nothing on a hub reads its binlog, so none of the above — the
	// replicated events, the fold's upserts — nor a rebuild's bulk loads
	// may pile up in it.
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	if n := hub.DB.Binlog().Len(); n != 0 {
		t.Errorf("hub binlog holds %d events that nothing will ever read or trim", n)
	}
}

// TestConcurrentEnsureAggregatedRebuildsOnce: the per-realm rebuilding
// flag is all that orders rebuilds. A crowd of readers arriving at a
// dirty realm must cost one rebuild — the first claims it, the rest
// wait, wake to a clean realm and return — and admin passes running
// alongside must leave the hub clean and correct.
func TestConcurrentEnsureAggregatedRebuildsOnce(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("sat")
	sat := warehouse.Open("sat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	upsert := func(id int64, cores int64) {
		row, err := jobs.FactFromRecord(shredder.JobRecord{
			LocalJobID: id, User: "u", Account: "a", Resource: "r", Queue: "q", Nodes: 1, Cores: cores,
			Submit: base, Start: base, End: base.Add(time.Duration(id) * time.Hour),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sat.Upsert(jobs.SchemaName, jobs.FactTable, row); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= 200; id++ {
		upsert(id, 4)
	}
	// A truncate and a refill: no group scope expresses a truncate, so
	// the batch leaves Jobs dirty.
	fact, err := sat.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	sat.Do(func() error { fact.Truncate(); return nil })
	for id := int64(1); id <= 200; id++ {
		upsert(id, 8)
	}
	evs, err := sat.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, upTo := replicate.NewRewriter("sat", replicate.Filter{}).ProcessBatch(evs)
	if err := hub.ApplyBatch("sat", upTo, out); err != nil {
		t.Fatal(err)
	}
	if st := hub.Status(); len(st.DirtyRealms) != 1 || st.DirtyRealms[0] != "Jobs" {
		t.Fatalf("dirty realms = %v, want [Jobs]", st.DirtyRealms)
	}

	// One rebuild is one install transaction on the realm's aggregation
	// schema, i.e. one epoch step.
	aggSchema := aggregate.AggSchema(jobs.RealmInfo())
	before := hub.DB.EpochOf(aggSchema)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := hub.EnsureAggregated(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := hub.DB.EpochOf(aggSchema) - before; got != 1 {
		t.Errorf("16 concurrent EnsureAggregated calls ran %d rebuilds of the dirty realm, want 1", got)
	}

	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(admin bool) {
			defer wg.Done()
			var err error
			if admin {
				_, err = hub.AggregateFederation()
			} else {
				_, err = hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
			}
			if err != nil {
				t.Error(err)
			}
		}(i%3 == 0)
	}
	wg.Wait()
	series, err := hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Aggregate != 200 || hub.Status().Dirty {
		t.Fatalf("after concurrent rebuilds: series %+v, dirty %v; want 200 jobs on a clean hub", series, hub.Status().DirtyRealms)
	}
}

// TestIdentityObservedFromReorderedFactTable: the username offset is
// resolved from the replicated table definition, so a satellite whose
// jobfact columns are ordered differently still feeds the identity map
// correctly (regression: the offset used to be hardcoded).
func TestIdentityObservedFromReorderedFactTable(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("odd")

	// Move the username column to the end of the definition.
	def := jobs.Def()
	cols := make([]warehouse.Column, 0, len(def.Columns))
	var userCol warehouse.Column
	for _, c := range def.Columns {
		if c.Name == jobs.ColUser {
			userCol = c
			continue
		}
		cols = append(cols, c)
	}
	if userCol.Name == "" {
		t.Fatalf("jobs def has no %s column", jobs.ColUser)
	}
	def.Columns = append(cols, userCol)

	end := time.Date(2017, 5, 1, 12, 0, 0, 0, time.UTC)
	rec := shredder.JobRecord{
		LocalJobID: 1, User: "reordered-alice", Account: "a",
		Resource: "r", Queue: "q", Nodes: 1, Cores: 2,
		Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
	}
	m, err := jobs.FactFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(def.Columns))
	for i, c := range def.Columns {
		row[i] = m[c.Name]
	}
	events := []warehouse.Event{
		{Kind: warehouse.EvCreateSchema, Schema: "fed_odd", Time: end},
		{Kind: warehouse.EvCreateTable, Schema: "fed_odd", Table: jobs.FactTable, Def: &def, Time: end},
		{Kind: warehouse.EvInsert, Schema: "fed_odd", Table: jobs.FactTable, Row: row, Time: end},
	}
	if err := hub.ApplyBatch("odd", 3, events); err != nil {
		t.Fatal(err)
	}

	if _, ok := hub.Identity.Resolve(auth.InstanceUser{Instance: "odd", Username: "reordered-alice"}); !ok {
		t.Error("username from reordered fact table not observed by identity map")
	}
	// The fold must also read by column name, not position.
	series, err := hub.Query(jobs.RealmInfo().Name, aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimUser, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Group != "reordered-alice" || series[0].Aggregate != 1 {
		t.Fatalf("series from reordered table = %+v", series)
	}
}

// TestLooseLoadDerivesLastEventFromDumpData: a loose dump's member
// freshness reflects the age of the shipped data, not the wall-clock
// load time (regression: LastEvent used to be set to time.Now), and
// the loaded realm is queued for rebuild.
func TestLooseLoadDerivesLastEventFromDumpData(t *testing.T) {
	sat, err := NewSatellite(satCfg("batch-site", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 5, time.Hour, 1)
	dump := snapshotOf(t, sat.DB, jobs.SchemaName)

	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("batch-site")
	if err := hub.LoadLooseDump("batch-site", dump); err != nil {
		t.Fatal(err)
	}

	st := hub.Status()
	if len(st.DirtyRealms) != 1 || st.DirtyRealms[0] != jobs.RealmInfo().Name {
		t.Errorf("dirty realms after loose load = %v, want [Jobs]", st.DirtyRealms)
	}
	// ingestJobs: 5 jobs ending base + i*2h + 1h wall; the newest is
	// 2017-03-01 09:00 UTC — that is the dump's data age.
	want := time.Date(2017, 3, 1, 9, 0, 0, 0, time.UTC)
	var member *Member
	for i := range st.Members {
		if st.Members[i].Name == "batch-site" {
			member = &st.Members[i]
		}
	}
	if member == nil {
		t.Fatalf("members = %v", st.Members)
	}
	if !member.LastEvent.Equal(want) {
		t.Errorf("LastEvent = %v, want newest dump fact time %v", member.LastEvent, want)
	}
	if member.LastBatch.IsZero() {
		t.Error("LastBatch not set by loose load")
	}

	// The first read rebuilds the realm and leaves the hub clean.
	series, err := hub.Query(jobs.RealmInfo().Name, aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Aggregate != 5 {
		t.Fatalf("series after loose load = %+v, want 5 jobs", series)
	}
	if st := hub.Status(); st.Dirty {
		t.Errorf("hub still dirty after read: %v", st.DirtyRealms)
	}
}
