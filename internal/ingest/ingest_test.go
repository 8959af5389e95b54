package ingest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	db := warehouse.Open("instance")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, cloud.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, storage.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	eng, err := aggregate.New(db, []config.AggregationLevels{
		config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range []struct {
		setup func() error
	}{
		{func() error { return eng.Setup(jobs.RealmInfo()) }},
		{func() error { return eng.Setup(cloud.RealmInfo()) }},
		{func() error { return eng.Setup(storage.RealmInfo()) }},
	} {
		if err := info.setup(); err != nil {
			t.Fatal(err)
		}
	}
	conv := su.NewConverter()
	conv.Register("rush", 1.0)
	return &Pipeline{DB: db, Converter: conv, Engine: eng}
}

func jobRec(id int64) shredder.JobRecord {
	return shredder.JobRecord{
		LocalJobID: id, User: "u", Account: "a", Resource: "rush", Queue: "q",
		Nodes: 1, Cores: 4,
		Submit: time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 5, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 5, 1, 3, 0, 0, 0, time.UTC),
	}
}

func TestIngestJobRecordsIdempotent(t *testing.T) {
	p := pipeline(t)
	st, err := p.IngestJobRecords([]shredder.JobRecord{jobRec(1), jobRec(2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 2 || st.Skipped != 0 {
		t.Errorf("stats = %s", st)
	}
	// Re-ingesting the same log must not duplicate facts or aggregates.
	st2, err := p.IngestJobRecords([]shredder.JobRecord{jobRec(1), jobRec(2), jobRec(3)})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Ingested != 1 || st2.Skipped != 2 {
		t.Errorf("stats = %s", st2)
	}
	if got := p.DB.Count(jobs.SchemaName, jobs.FactTable); got != 3 {
		t.Errorf("facts = %d", got)
	}
	series, err := p.Engine.Query(jobs.RealmInfo(), aggregate.Request{
		MetricID: jobs.MetricNumJobs, Period: aggregate.Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Aggregate != 3 {
		t.Errorf("aggregated job count = %g, want 3 (no double count)", series[0].Aggregate)
	}
}

func TestIngestJobRecordsRejectsInvalid(t *testing.T) {
	p := pipeline(t)
	bad := jobRec(9)
	bad.User = ""
	unknownRes := jobRec(10)
	unknownRes.Resource = "unbenchmarked"
	st, err := p.IngestJobRecords([]shredder.JobRecord{bad, unknownRes, jobRec(11)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 2 || st.Ingested != 1 || len(st.Errors) != 2 {
		t.Errorf("stats = %s errors=%v", st, st.Errors)
	}
}

func TestIngestJobLog(t *testing.T) {
	p := pipeline(t)
	log := "2001|x|alice|acct|q|1|8|2017-03-01T00:00:00|2017-03-01T01:00:00|2017-03-01T02:00:00|COMPLETED\n" +
		"garbage line\n"
	st, err := p.IngestJobLog(strings.NewReader(log), "slurm", "rush")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 1 || st.Rejected != 1 {
		t.Errorf("stats = %s", st)
	}
	if _, err := p.IngestJobLog(strings.NewReader(""), "lsf9", "rush"); err == nil {
		t.Error("unknown format must error")
	}
}

func TestIngestCloudEventsAndSessions(t *testing.T) {
	p := pipeline(t)
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	events := []cloud.Event{
		{VMID: "vm1", Resource: "cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvStart, Time: t0, Cores: 2, MemoryGB: 4},
		{VMID: "vm1", Resource: "cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvStop, Time: t0.Add(3 * time.Hour), Cores: 2, MemoryGB: 4},
		{VMID: "", Resource: "cloud", Type: cloud.EvStart, Time: t0}, // invalid
	}
	st, err := p.IngestCloudEvents(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 2 || st.Rejected != 1 {
		t.Errorf("stats = %s", st)
	}
	if got := p.DB.Count(cloud.SchemaName, cloud.SessionTable); got != 1 {
		t.Fatalf("sessions = %d", got)
	}
	series, err := p.Engine.Query(cloud.RealmInfo(), aggregate.Request{
		MetricID: cloud.MetricCoreHours, Period: aggregate.Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Aggregate != 6 { // 2 cores * 3 h
		t.Errorf("core hours = %g, want 6", series[0].Aggregate)
	}

	// Late-arriving events revise sessions without duplication.
	more := []cloud.Event{
		{VMID: "vm1", Resource: "cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvResume, Time: t0.Add(5 * time.Hour), Cores: 2, MemoryGB: 4},
		{VMID: "vm1", Resource: "cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvTerminate, Time: t0.Add(6 * time.Hour), Cores: 2, MemoryGB: 4},
	}
	if _, err := p.IngestCloudEvents(more, t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := p.DB.Count(cloud.SchemaName, cloud.SessionTable); got != 2 {
		t.Errorf("sessions after revision = %d, want 2", got)
	}
	series, _ = p.Engine.Query(cloud.RealmInfo(), aggregate.Request{
		MetricID: cloud.MetricCoreHours, Period: aggregate.Year,
	})
	if series[0].Aggregate != 8 { // 6 + 2*1
		t.Errorf("core hours after revision = %g, want 8", series[0].Aggregate)
	}
}

func TestIngestStorageJSON(t *testing.T) {
	p := pipeline(t)
	doc := `[
	 {"resource":"isilon","resource_type":"persistent","mountpoint":"/home","user":"alice","pi":"smith",
	  "dt":"2017-02-28T06:00:00Z","file_count":100,"logical_usage":1000,"physical_usage":1400,
	  "soft_threshold":2000,"hard_threshold":3000},
	 {"resource":"isilon","resource_type":"persistent","mountpoint":"/home","user":"bob","pi":"smith",
	  "dt":"2017-02-28T06:00:00Z","file_count":50,"logical_usage":500,"physical_usage":600,
	  "soft_threshold":2000,"hard_threshold":3000}
	]`
	st, err := p.IngestStorageJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != 2 {
		t.Errorf("stats = %s", st)
	}
	series, err := p.Engine.Query(storage.RealmInfo(), aggregate.Request{
		MetricID: storage.MetricFileCount, Period: aggregate.Month,
	})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Aggregate != 150 {
		t.Errorf("file count = %g, want 150", series[0].Aggregate)
	}
	// Invalid documents are rejected whole.
	if _, err := p.IngestStorageJSON(strings.NewReader(`[{"resource":""}]`)); err == nil {
		t.Error("invalid document accepted")
	}
}

func TestIngestWithoutRealmSetup(t *testing.T) {
	p := &Pipeline{DB: warehouse.Open("empty")}
	if _, err := p.IngestJobRecords([]shredder.JobRecord{jobRec(1)}); err == nil {
		t.Error("jobs ingest without setup must error")
	}
	if _, err := p.IngestCloudEvents(nil, time.Now()); err == nil {
		t.Error("cloud ingest without setup must error")
	}
	if _, err := p.IngestStorageSnapshots(nil); err == nil {
		t.Error("storage ingest without setup must error")
	}
}

// TestStorageLateSnapshotKeepsLatest: two samples of one (resource,
// user, day) collapse to the later-sampled one whatever order they
// arrive in. The 06:00 document re-shipped after the 18:00 one is
// skipped — stored row, Month chart and binlog all stay at 18:00.
func TestStorageLateSnapshotKeepsLatest(t *testing.T) {
	p := pipeline(t)
	snap := func(hour int, files int64) storage.Snapshot {
		return storage.Snapshot{Resource: "isilon", ResourceType: "persistent", Mountpoint: "/home",
			User: "alice", PI: "smith", Timestamp: time.Date(2017, 2, 28, hour, 0, 0, 0, time.UTC),
			FileCount: files, LogicalBytes: 10 * files, PhysicalBytes: 14 * files}
	}
	if st, err := p.IngestStorageSnapshots([]storage.Snapshot{snap(18, 180)}); err != nil || st.Ingested != 1 {
		t.Fatalf("18:00 ingest: %s, %v", st, err)
	}
	head := p.DB.Binlog().Last()
	st, err := p.IngestStorageSnapshots([]storage.Snapshot{snap(6, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Ingested != 0 {
		t.Errorf("late 06:00 snapshot: stats = %s, want it skipped", st)
	}
	if got := p.DB.Binlog().Last(); got != head {
		t.Errorf("the skipped snapshot advanced the binlog from %d to %d", head, got)
	}
	tab, err := p.DB.TableIn(storage.SchemaName, storage.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	p.DB.View(func() error {
		if r, ok := tab.GetByKey("isilon", "alice", int64(20170228)); !ok || r.Int("file_count") != 180 {
			t.Errorf("stored file_count = %d (found %v), want the 18:00 sample's 180", r.Int("file_count"), ok)
		}
		return nil
	})
	series, err := p.Engine.Query(storage.RealmInfo(), aggregate.Request{MetricID: storage.MetricFileCount, Period: aggregate.Month})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Aggregate != 180 {
		t.Errorf("Month file count = %+v, want 180", series)
	}
	// An equal timestamp still replaces: a re-shipped correction wins.
	if st, err := p.IngestStorageSnapshots([]storage.Snapshot{snap(18, 181)}); err != nil || st.Ingested != 1 {
		t.Fatalf("same-time correction: %s, %v", st, err)
	}
	series, _ = p.Engine.Query(storage.RealmInfo(), aggregate.Request{MetricID: storage.MetricFileCount, Period: aggregate.Month})
	if len(series) != 1 || series[0].Aggregate != 181 {
		t.Errorf("Month file count after the correction = %+v, want 181", series)
	}
}

// TestNonAdditiveIngestLogIsFlat: what one cloud batch or storage day
// logs depends on the batch, not on the history before it. After 30
// batches of each, one more cloud batch logs its events plus at most
// two events per session of the VMs it names, a storage day logs
// exactly one event per snapshot, nothing ever logs a TRUNCATE, and a
// cloud batch with no valid event logs nothing at all.
func TestNonAdditiveIngestLogIsFlat(t *testing.T) {
	p := pipeline(t)
	const batch, history = 10, 30
	events := workload.CCRCloud2017(2*history*batch/6, 7)
	snaps := workload.CCRStorage2017(5, 8)
	days := len(snaps) / 12 // one month's collection run
	day := func(i int) []storage.Snapshot {
		out := append([]storage.Snapshot(nil), snaps[(i%12)*days:(i%12+1)*days]...)
		for j := range out {
			out[j].Timestamp = time.Date(2017, 1, 1, 6, 0, 0, 0, time.UTC).AddDate(0, 0, i)
		}
		return out
	}
	for i := 0; i < history; i++ {
		if _, err := p.IngestCloudEvents(events[i*batch:(i+1)*batch], workload.CloudHorizon2017); err != nil {
			t.Fatal(err)
		}
		if _, err := p.IngestStorageSnapshots(day(i)); err != nil {
			t.Fatal(err)
		}
	}
	log := p.DB.Binlog()

	next := events[history*batch : (history+1)*batch]
	head := log.Last()
	if _, err := p.IngestCloudEvents(next, workload.CloudHorizon2017); err != nil {
		t.Fatal(err)
	}
	vms := map[string]bool{}
	for _, e := range next {
		vms[e.VMID] = true
	}
	sessions := 0
	sess, err := p.DB.TableIn(cloud.SchemaName, cloud.SessionTable)
	if err != nil {
		t.Fatal(err)
	}
	p.DB.View(func() error {
		sess.Scan(func(r warehouse.Row) bool {
			if vms[r.String("vm_id")] {
				sessions++
			}
			return true
		})
		return nil
	})
	if got, limit := log.Last()-head, uint64(len(next)+2*sessions); got > limit {
		t.Errorf("cloud batch of %d events (%d sessions of its VMs) logged %d events, want at most %d",
			len(next), sessions, got, limit)
	}

	head = log.Last()
	d := day(history)
	if _, err := p.IngestStorageSnapshots(d); err != nil {
		t.Fatal(err)
	}
	if got := log.Last() - head; got != uint64(len(d)) {
		t.Errorf("storage day of %d snapshots logged %d events", len(d), got)
	}

	head = log.Last()
	invalid := []cloud.Event{{VMID: "", Resource: "lakeeffect", Type: cloud.EvStart, Time: time.Now()}}
	if st, err := p.IngestCloudEvents(invalid, workload.CloudHorizon2017); err != nil || st.Rejected != 1 {
		t.Fatalf("invalid batch: %s, %v", st, err)
	}
	if got := log.Last() - head; got != 0 {
		t.Errorf("a cloud batch of invalid events logged %d events", got)
	}

	evs, err := log.ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.Kind == warehouse.EvTruncate {
			t.Fatalf("binlog holds a TRUNCATE of %s.%s at LSN %d", ev.Schema, ev.Table, ev.LSN)
		}
	}
}

// TestCloudSessionDiffMatchesFullReconstruction: sessions maintained
// batch by batch — each batch diffing only the VMs it names and the
// ones a moved horizon reopens — end up exactly the rows one
// reconstruction of the whole event log writes, and the Cloud
// aggregates exactly what a rebuild computes from them. Batches arrive
// out of time order and the horizon moves between them; resizes split
// sessions, and a stop that arrives after a resize merges them again,
// so sessions are deleted as well as written.
func TestCloudSessionDiffMatchesFullReconstruction(t *testing.T) {
	p := pipeline(t)
	events := workload.CCRCloud2017(40, 11)
	rng := rand.New(rand.NewSource(11))
	for _, e := range events {
		if e.Type == cloud.EvStart && rng.Intn(2) == 0 {
			e.Type, e.Cores = cloud.EvResize, 2*e.Cores
			e.Time = e.Time.Add(time.Duration(1+rng.Intn(96)) * time.Hour)
			events = append(events, e)
		}
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	horizon := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for len(events) > 0 {
		n := min(len(events), 1+rng.Intn(12))
		horizon = horizon.Add(time.Duration(rng.Intn(30*24)) * time.Hour)
		if _, err := p.IngestCloudEvents(events[:n], horizon); err != nil {
			t.Fatal(err)
		}
		events = events[n:]
	}
	info := cloud.RealmInfo()
	snapshot := func() (sessions, aggs []string) {
		sess, err := p.DB.TableIn(cloud.SchemaName, cloud.SessionTable)
		if err != nil {
			t.Fatal(err)
		}
		p.DB.View(func() error {
			sess.Scan(func(r warehouse.Row) bool {
				sessions = append(sessions, fmt.Sprint(r.Values()))
				return true
			})
			for _, per := range aggregate.Periods() {
				tab, err := p.DB.TableIn(aggregate.AggSchema(info), aggregate.AggTableName(info.FactTable, per))
				if err != nil {
					t.Fatal(err)
				}
				tab.Scan(func(r warehouse.Row) bool {
					aggs = append(aggs, fmt.Sprint(per, r.Values()))
					return true
				})
			}
			return nil
		})
		sort.Strings(sessions)
		sort.Strings(aggs)
		return sessions, aggs
	}
	gotSessions, gotAggs := snapshot()

	// The reference: one plain scan of the whole event log, grouped by
	// VM in scan order, each VM's sessions reconstructed and written
	// afresh, then a rebuild. It reads no event or session by key.
	evTab, _ := p.DB.TableIn(cloud.SchemaName, cloud.EventTable)
	sessTab, _ := p.DB.TableIn(cloud.SchemaName, cloud.SessionTable)
	err := p.DB.Do(func() error {
		byVM := map[string][]cloud.Event{}
		var vms []string
		evTab.Scan(func(r warehouse.Row) bool {
			vm := r.String("vm_id")
			if _, ok := byVM[vm]; !ok {
				vms = append(vms, vm)
			}
			byVM[vm] = append(byVM[vm], cloud.Event{
				VMID: vm, Resource: r.String("resource"), User: r.String("username"),
				Project: r.String("project"), InstanceType: r.String("instance_type"),
				Type: cloud.EventType(r.String("event_type")), Time: r.Get("event_time").(time.Time),
				Cores: r.Int("cores"), MemoryGB: r.Float("memory_gb"), DiskGB: r.Float("disk_gb"),
			})
			return true
		})
		sessTab.Truncate()
		for _, vm := range vms {
			sessions, err := cloud.ReconstructSessions(byVM[vm], horizon)
			if err != nil {
				return err
			}
			for seq, s := range sessions {
				if err := sessTab.InsertRow(cloud.SessionValues(s, seq)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Engine.Reaggregate(info, []string{cloud.SchemaName}); err != nil {
		t.Fatal(err)
	}
	wantSessions, wantAggs := snapshot()
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"sessions", gotSessions, wantSessions}, {"aggregation rows", gotAggs, wantAggs}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: maintained %d, full reconstruction %d", c.what, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s differ:\n maintained %s\n full       %s", c.what, c.got[i], c.want[i])
			}
		}
	}
}
