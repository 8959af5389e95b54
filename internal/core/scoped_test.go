package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// scopedCharts covers every realm, grouped and ungrouped, at every
// period.
var scopedCharts = []struct {
	realm string
	req   aggregate.Request
}{
	{"Jobs", aggregate.Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: aggregate.Day}},
	{"Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Month}},
	{"Jobs", aggregate.Request{MetricID: jobs.MetricAvgJobSize, Period: aggregate.Year}},
	{"Cloud", aggregate.Request{MetricID: cloud.MetricCoreHours, GroupBy: cloud.DimUser, Period: aggregate.Day}},
	{"Cloud", aggregate.Request{MetricID: cloud.MetricVMsStarted, Period: aggregate.Quarter}},
	{"Cloud", aggregate.Request{MetricID: cloud.MetricAvgMemReserved, GroupBy: cloud.DimVMSizeMem, Period: aggregate.Month}},
	{"Storage", aggregate.Request{MetricID: storage.MetricFileCount, GroupBy: storage.DimUser, Period: aggregate.Day}},
	{"Storage", aggregate.Request{MetricID: storage.MetricLogicalUsage, Period: aggregate.Month}},
}

// TestUpdateAndDeleteBatchesLeaveHubClean: a member whose batches
// update and delete facts in every realm — jobs re-accounted and
// removed, cloud sessions revised by late events, storage days
// re-sampled and removed — never leaves the hub dirty once ApplyBatch
// returns: each batch recomputed its groups in place. The aggregation
// tables then equal a full rebuild's key for key, and every chart
// equals AggregateFederation's byte for byte (the measures are whole
// and half hours and integer counts, so no cell depends on the order
// the table holds its rows in).
func TestUpdateAndDeleteBatchesLeaveHubClean(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("center"); err != nil {
		t.Fatal(err)
	}
	sat, err := NewSatellite(multiRealmSatCfg())
	if err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("center", replicate.Filter{})
	var pos uint64
	ship := func(step string) {
		t.Helper()
		evs, err := sat.DB.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 {
			t.Fatalf("%s logged nothing", step)
		}
		out, upTo := rw.ProcessBatch(evs)
		if err := hub.ApplyBatch("center", upTo, out); err != nil {
			t.Fatal(err)
		}
		pos = upTo
		if st := hub.Status(); st.Dirty {
			t.Fatalf("%s: hub dirty after ApplyBatch returned: %v", step, st.DirtyRealms)
		}
	}
	jobTab, err := sat.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	storTab, err := sat.DB.TableIn(storage.SchemaName, storage.FactTable)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	job := func(id int64) shredder.JobRecord {
		end := t0.Add(time.Duration(rng.Intn(60*24)) * 30 * time.Minute)
		wall := time.Duration(1+rng.Intn(20)) * 30 * time.Minute
		return shredder.JobRecord{LocalJobID: id, User: fmt.Sprintf("user%d", rng.Intn(4)), Account: "acct",
			Resource: []string{"clusterA", "clusterB"}[rng.Intn(2)], Queue: "batch", Nodes: 1, Cores: int64(1 + rng.Intn(16)),
			Submit: end.Add(-wall - time.Hour), Start: end.Add(-wall), End: end}
	}
	vmEvent := func(vm int, typ cloud.EventType, at time.Time) cloud.Event {
		return cloud.Event{VMID: fmt.Sprintf("vm%d", vm), Resource: "research-cloud", User: fmt.Sprintf("u%d", vm%3),
			Project: "p", InstanceType: "m1", Type: typ, Time: at, Cores: int64(1 + vm%4), MemoryGB: float64(int(1) << (vm % 4))}
	}
	snap := func(user, day, hour int) storage.Snapshot {
		files := int64(rng.Intn(1 << 20))
		return storage.Snapshot{Resource: "isilon", ResourceType: "persistent", Mountpoint: "/home",
			User: fmt.Sprintf("u%d", user), PI: "p", Timestamp: t0.AddDate(0, 0, day).Add(time.Duration(hour) * time.Hour),
			FileCount: files, LogicalBytes: 1000 * files, PhysicalBytes: 1200 * files}
	}

	var nextID int64 = 1
	resourceOf := map[int64]string{}
	for round := 0; round < 12; round++ {
		// Jobs: new facts, re-accounted ones (updates), removed ones.
		var recs []shredder.JobRecord
		for n := 0; n < 8; n++ {
			rec := job(nextID)
			resourceOf[nextID] = rec.Resource
			recs = append(recs, rec)
			nextID++
		}
		if _, err := sat.Pipeline.IngestJobRecords(recs); err != nil {
			t.Fatal(err)
		}
		ship(fmt.Sprintf("round %d jobs insert", round))
		err := sat.DB.Do(func() error {
			for n := 0; n < 3; n++ {
				id := 1 + rng.Int63n(nextID-1)
				if rng.Intn(3) == 0 {
					jobTab.DeleteByKey(resourceOf[id], id)
					continue
				}
				rec := job(id)
				rec.Resource = resourceOf[id]
				row, err := jobs.FactFromRecord(rec, nil)
				if err != nil {
					return err
				}
				if err := jobTab.Upsert(row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ship(fmt.Sprintf("round %d jobs update/delete", round))

		// Cloud: a VM starts, then late events split, close and extend
		// its sessions.
		vm := round % 5
		at := t0.Add(time.Duration(round*7) * time.Hour)
		evs := []cloud.Event{vmEvent(vm, cloud.EvStart, at)}
		switch round % 3 {
		case 1:
			evs = append(evs, vmEvent(vm, cloud.EvStop, at.Add(5*time.Hour)))
		case 2:
			evs = append(evs, vmEvent(vm, cloud.EvPause, at.Add(2*time.Hour)), vmEvent(vm, cloud.EvResume, at.Add(3*time.Hour)))
		}
		if _, err := sat.Pipeline.IngestCloudEvents(evs, t0.AddDate(0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		ship(fmt.Sprintf("round %d cloud", round))

		// Storage: a new day, a later sample of an earlier day, and a
		// removed day.
		snaps := []storage.Snapshot{snap(round%3, round, 6), snap((round+1)%3, round/2, 18)}
		if _, err := sat.Pipeline.IngestStorageSnapshots(snaps); err != nil {
			t.Fatal(err)
		}
		ship(fmt.Sprintf("round %d storage", round))
		if round%4 == 3 {
			sat.DB.Do(func() error {
				storTab.DeleteByKey(storage.Key(snap((round-1)%3, round-1, 0))...)
				return nil
			})
			ship(fmt.Sprintf("round %d storage delete", round))
		}
	}

	served := map[string][]string{}
	charts := func() []string {
		var out []string
		for i, c := range scopedCharts {
			series, err := hub.Instance.Query(c.realm, c.req) // no EnsureAggregated: nothing may be pending
			if err != nil {
				t.Fatal(err)
			}
			if len(series) == 0 {
				t.Fatalf("chart %d (%s) is empty", i, c.realm)
			}
			data, err := json.Marshal(series)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(data))
		}
		return out
	}
	want := charts()
	for _, name := range []string{"Jobs", "Cloud", "Storage"} {
		served[name] = hubAggSnapshot(t, hub, name)
	}
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Jobs", "Cloud", "Storage"} {
		rebuilt := hubAggSnapshot(t, hub, name)
		if len(rebuilt) != len(served[name]) {
			t.Fatalf("%s: hub served %d aggregation rows, a rebuild computes %d", name, len(served[name]), len(rebuilt))
		}
		for i := range rebuilt {
			if rebuilt[i] != served[name][i] {
				t.Fatalf("%s row %d differs:\n served  %s\n rebuilt %s", name, i, served[name][i], rebuilt[i])
			}
		}
	}
	for i, got := range charts() {
		if got != want[i] {
			t.Errorf("chart %d (%s) served before the rebuild differs:\nserved  %s\nrebuilt %s", i, scopedCharts[i].realm, want[i], got)
		}
	}
}

// TestBatchWaitsForRunningRecompute: a batch that arrives while its
// realm is being recomputed waits for the recompute to install before
// it applies anything — neither its raw rows nor its aggregates move
// meanwhile — and then folds, leaving the hub clean.
func TestBatchWaitsForRunningRecompute(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("sat")
	sat := warehouse.Open("sat")
	if _, err := realm.Setup(sat, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	rw := replicate.NewRewriter("sat", replicate.Filter{})
	var pos uint64
	batch := func(from, to int64) ([]warehouse.Event, uint64) {
		base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
		for id := from; id <= to; id++ {
			row, err := jobs.FactFromRecord(shredder.JobRecord{LocalJobID: id, User: "u", Account: "a",
				Resource: "r", Queue: "q", Nodes: 1, Cores: 4, Submit: base, Start: base, End: base.Add(time.Duration(id) * time.Hour)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sat.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
				t.Fatal(err)
			}
		}
		evs, err := sat.Binlog().ReadFrom(pos, 0)
		if err != nil {
			t.Fatal(err)
		}
		out, upTo := rw.ProcessBatch(evs)
		pos = upTo
		return out, upTo
	}
	jobCount := func() float64 {
		series, err := hub.Instance.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
		if err != nil || len(series) != 1 {
			t.Fatalf("jobs chart: %+v, %v", series, err)
		}
		return series[0].Aggregate
	}
	rawRows := func() int {
		tab, err := hub.DB.TableIn(replicate.HubSchema("sat"), jobs.FactTable)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		hub.DB.View(func() error { n = tab.Len(); return nil })
		return n
	}
	out, upTo := batch(1, 5)
	if err := hub.ApplyBatch("sat", upTo, out); err != nil {
		t.Fatal(err)
	}

	unlock := hub.Engine.Lock("Jobs") // a recompute is running
	out, upTo = batch(6, 10)
	done := make(chan error, 1)
	go func() { done <- hub.ApplyBatch("sat", upTo, out) }()
	// Nothing may happen while the recompute runs, so there is no event
	// to wait for: give the batch time to get wrong what it could.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("ApplyBatch returned (%v) under a running recompute", err)
	default:
	}
	if n, got := rawRows(), jobCount(); n != 5 || got != 5 {
		t.Fatalf("a batch moved under a running recompute: %d raw rows, %g jobs charted; want the 5 from before it", n, got)
	}
	unlock() // the recompute installs
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := jobCount(); got != 10 {
		t.Fatalf("after ApplyBatch returned: %g jobs, want 10", got)
	}
	if hub.Status().Dirty {
		t.Fatal("realm left dirty")
	}
}
