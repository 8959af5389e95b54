// Chaos end-to-end test: a multi-satellite federation runs under
// seeded fault injection — torn WAL tails recovered on satellite
// restart, connections dropped mid-frame by the fault layer, a sender
// killed and restarted between ingest phases — and must still converge
// to a unified view bit-identical to a fault-free control federation
// fed the same binlogs. Run via `make chaos` (always under -race).
package xdmodfed

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/faults"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

// chaosSite is one satellite's moving parts during the chaos run.
type chaosSite struct {
	name     string
	resource string
	walPath  string
	sat      *core.Satellite
	wal      *warehouse.LogWriter
	sender   *replicate.Sender
}

func chaosSatCfg(name, resource string) config.InstanceConfig {
	return config.InstanceConfig{
		Name: name, Version: core.Version,
		Resources: []config.ResourceConfig{{Name: resource, Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
}

func chaosHubCfg(name string) config.InstanceConfig {
	return config.InstanceConfig{
		Name: name, Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
}

func chaosIngest(t *testing.T, s *core.Satellite, resource string, n int, startID int64) {
	t.Helper()
	var recs []shredder.JobRecord
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i) * 2 * time.Hour).Add(time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: startID + int64(i), User: fmt.Sprintf("user%d", i%4), Account: "acct",
			Resource: resource, Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-90 * time.Minute), Start: end.Add(-time.Hour), End: end,
		})
	}
	st, err := s.Pipeline.IngestJobRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != n {
		t.Fatalf("%s: ingested %d of %d: %v", s.Config.Name, st.Ingested, n, st.Errors)
	}
}

// jobsRewriter mirrors what StartFederation builds for a default
// tight route: replicate the Jobs realm tables only.
func jobsRewriter(instance string) *replicate.Rewriter {
	include := map[string]bool{}
	for _, tab := range core.FederatedTablesFor("Jobs") {
		include[tab] = true
	}
	return replicate.NewRewriter(instance, replicate.Filter{IncludeTables: include})
}

func TestChaosFederationConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	rng := rand.New(rand.NewSource(20180601))

	// The chaos hub listens through the fault layer: reads and writes
	// on every replication connection randomly fail, forcing senders
	// through the reconnect-and-resume path, with fast heartbeats so
	// dead peers are noticed quickly.
	reg := faults.New(42)
	reg.Enable(faults.ConnReadDrop, 0.05)
	reg.Enable(faults.ConnWriteDrop, 0.05)

	hubCfg := chaosHubCfg("fedhub")
	hubCfg.Replication = config.ReplicationConfig{HeartbeatInterval: "100ms"}
	hub, err := core.NewHub(hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Faults = reg
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// The control hub sees no faults and no network: each satellite's
	// final binlog is applied to it directly.
	control, err := core.NewHub(chaosHubCfg("fedhub"))
	if err != nil {
		t.Fatal(err)
	}

	sites := []*chaosSite{
		{name: "siteA", resource: "clusterA"},
		{name: "siteB", resource: "clusterB"},
	}
	phase1 := map[string]int{"siteA": 40, "siteB": 55}
	for _, site := range sites {
		if err := hub.Register(site.name); err != nil {
			t.Fatal(err)
		}
		if err := control.Register(site.name); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 1: each site ingests into a WAL-backed warehouse, crashes
	// with a torn tail (the file is cut mid-record), and restarts: the
	// fresh process replays the prefix and resumes appending.
	for _, site := range sites {
		site.walPath = filepath.Join(t.TempDir(), site.name+".wal")
		sat, err := core.NewSatellite(chaosSatCfg(site.name, site.resource))
		if err != nil {
			t.Fatal(err)
		}
		wal, err := warehouse.OpenLogWriterOpts(sat.DB, site.walPath, 0, warehouse.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chaosIngest(t, sat, site.resource, phase1[site.name], 1)
		preCrash := sat.DB.Binlog().Last()
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}

		// Tear the tail: drop 1-40 trailing bytes, landing mid-record.
		fi, err := os.Stat(site.walPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := fi.Size() - int64(1+rng.Intn(40))
		if err := os.Truncate(site.walPath, cut); err != nil {
			t.Fatal(err)
		}

		site.sat, err = core.NewSatellite(chaosSatCfg(site.name, site.resource))
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := warehouse.ReplayLog(site.sat.DB, site.walPath)
		if err != nil {
			t.Fatalf("%s: replay after torn tail: %v", site.name, err)
		}
		if recovered == 0 || recovered >= preCrash {
			t.Fatalf("%s: recovered %d events, want (0, %d)", site.name, recovered, preCrash)
		}
		site.wal, err = warehouse.OpenLogWriterOpts(site.sat.DB, site.walPath,
			site.sat.DB.Binlog().Last(), warehouse.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer site.wal.Close()

		// Phase 2: more data lands on the recovered warehouse.
		chaosIngest(t, site.sat, site.resource, 25, 1000)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	senderDone := make(map[string]chan struct{})
	startSender := func(site *chaosSite, sctx context.Context) {
		done := make(chan struct{})
		senderDone[site.name] = done
		go func() {
			defer close(done)
			site.sender.RunWithRetry(sctx, addr, time.Millisecond)
		}()
	}
	for _, site := range sites {
		site.sender = &replicate.Sender{
			Instance: site.name, Version: core.Version,
			DB: site.sat.DB, Rewriter: jobsRewriter(site.name), BatchSize: 8,
		}
	}

	// Phase 3: site A's sender is killed mid-stream after partial
	// progress, more data is ingested while it is down, and a restarted
	// sender must resume from the hub's durable position.
	siteA := sites[0]
	actx, akill := context.WithCancel(ctx)
	startSender(siteA, actx)
	waitUntil(t, 30*time.Second, func() bool {
		for _, m := range hub.Status().Members {
			if m.Name == siteA.name && m.Position > 0 {
				return true
			}
		}
		return false
	}, "siteA sender made no progress")
	akill()
	<-senderDone[siteA.name]
	chaosIngest(t, siteA.sat, siteA.resource, 20, 2000)
	startSender(siteA, ctx)
	startSender(sites[1], ctx)

	// Convergence: every member's durable position reaches its
	// satellite's binlog head despite the injected connection faults.
	waitUntil(t, 60*time.Second, func() bool {
		members := map[string]uint64{}
		for _, m := range hub.Status().Members {
			members[m.Name] = m.Position
		}
		for _, site := range sites {
			if members[site.name] != site.sat.DB.Binlog().Last() {
				return false
			}
		}
		return true
	}, "federation never converged under faults")

	if reg.Injected() == 0 {
		t.Error("fault registry injected nothing; chaos run was fault-free")
	}
	for _, m := range hub.Status().Members {
		if m.Failures != 0 || m.LastError != "" {
			t.Errorf("member %s recorded an apply failure during chaos run: %+v", m.Name, m)
		}
	}

	// Feed the control hub each satellite's full binlog directly.
	for _, site := range sites {
		last := site.sat.DB.Binlog().Last()
		evs, err := site.sat.DB.Binlog().ReadFrom(0, int(last)+1)
		if err != nil {
			t.Fatal(err)
		}
		rw := jobsRewriter(site.name)
		var out []warehouse.Event
		for _, ev := range evs {
			if rewritten, ok := rw.Process(ev); ok {
				out = append(out, rewritten)
			}
		}
		if err := control.ApplyBatch(site.name, last, out); err != nil {
			t.Fatalf("%s: control apply: %v", site.name, err)
		}
	}

	// Both hubs rebuild their federation-wide aggregates from scratch
	// and must agree exactly: same realm counts, same chart series.
	chaosCounts, err := hub.AggregateFederation()
	if err != nil {
		t.Fatal(err)
	}
	controlCounts, err := control.AggregateFederation()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chaosCounts, controlCounts) {
		t.Errorf("aggregate counts diverged: chaos %v, control %v", chaosCounts, controlCounts)
	}
	for _, req := range []aggregate.Request{
		{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year},
		{MetricID: jobs.MetricWallHours, GroupBy: jobs.DimQueue, Period: aggregate.Month},
	} {
		got, err := hub.Query("Jobs", req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.Query("Jobs", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chart %s/%s diverged under faults:\nchaos:   %+v\ncontrol: %+v",
				req.MetricID, req.GroupBy, got, want)
		}
	}
}

func waitUntil(t *testing.T, limit time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// chaosPushSatCfg is a chaos satellite whose aggregation levels match
// the hub's: aggregation pushdown is only granted on an exact levels
// digest, so a pushdown chaos site must bin exactly like the hub does.
func chaosPushSatCfg(name, resource string) config.InstanceConfig {
	cfg := chaosSatCfg(name, resource)
	cfg.AggregationLevels = []config.AggregationLevels{
		config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
	}
	return cfg
}

// TestChaosPushdownConvergence runs the chaos harness against a
// pushdown sender: connections drop randomly mid-delta-flush, the
// sender is killed and restarted between ingest phases, and every
// reconnect re-negotiates and re-ships a reset snapshot. The pushdown
// hub must converge to charts bit-identical to a fault-free control
// hub fed the same binlog as raw facts.
func TestChaosPushdownConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}

	reg := faults.New(43)
	reg.Enable(faults.ConnReadDrop, 0.05)
	reg.Enable(faults.ConnWriteDrop, 0.05)

	hubCfg := chaosHubCfg("fedhub")
	hubCfg.Replication = config.ReplicationConfig{HeartbeatInterval: "100ms"}
	hub, err := core.NewHub(hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Faults = reg
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	control, err := core.NewHub(chaosHubCfg("fedhub"))
	if err != nil {
		t.Fatal(err)
	}

	const site, resource = "siteP", "clusterP"
	if err := hub.Register(site); err != nil {
		t.Fatal(err)
	}
	if err := control.Register(site); err != nil {
		t.Fatal(err)
	}
	sat, err := core.NewSatellite(chaosPushSatCfg(site, resource))
	if err != nil {
		t.Fatal(err)
	}
	chaosIngest(t, sat, resource, 60, 1)

	info, ok := sat.Registry.Get("Jobs")
	if !ok {
		t.Fatal("no Jobs realm")
	}
	newSender := func() *replicate.Sender {
		// A fresh folder per sender run mimics a process restart: all
		// in-memory fold state is lost and rebuilt from the snapshot.
		pf, err := replicate.NewPushdownFolder(sat.Engine, []realm.Info{info},
			replicate.Filter{}, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return &replicate.Sender{
			Instance: site, Version: core.Version,
			DB: sat.DB, Rewriter: jobsRewriter(site), BatchSize: 8,
			Pushdown: pf,
		}
	}

	converged := func() bool {
		head := sat.DB.Binlog().Last()
		for _, m := range hub.Status().Members {
			if m.Name == site {
				return m.Mode == "pushdown" && m.Position == head && m.DeltaCovered == head
			}
		}
		return false
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Phase 1: run under connection faults until the first snapshot
	// converges (likely across several reconnects, each re-shipping a
	// reset delta).
	actx, akill := context.WithCancel(ctx)
	done1 := make(chan struct{})
	sender1 := newSender()
	go func() { defer close(done1); sender1.RunWithRetry(actx, addr, time.Millisecond) }()
	waitUntil(t, 60*time.Second, converged, "pushdown never converged under faults")

	// Phase 2: kill the sender mid-stream, ingest while it is down
	// (deltas now stale), restart with a fresh process-like folder: the
	// reset-on-connect handshake must re-converge without double
	// counting the facts already covered by the snapshot.
	akill()
	<-done1
	chaosIngest(t, sat, resource, 35, 3000)
	done2 := make(chan struct{})
	sender2 := newSender()
	go func() { defer close(done2); sender2.RunWithRetry(ctx, addr, time.Millisecond) }()
	waitUntil(t, 60*time.Second, converged, "pushdown never re-converged after sender restart")

	if reg.Injected() == 0 {
		t.Error("fault registry injected nothing; chaos run was fault-free")
	}
	if got := hub.DB.Count("fed_"+site, jobs.FactTable); got != 0 {
		t.Errorf("pushdown chaos hub materialized %d raw fact rows", got)
	}

	// Control: the whole binlog applied as raw facts, no faults.
	last := sat.DB.Binlog().Last()
	evs, err := sat.DB.Binlog().ReadFrom(0, int(last)+1)
	if err != nil {
		t.Fatal(err)
	}
	rw := jobsRewriter(site)
	var out []warehouse.Event
	for _, ev := range evs {
		if rewritten, ok := rw.Process(ev); ok {
			out = append(out, rewritten)
		}
	}
	if err := control.ApplyBatch(site, last, out); err != nil {
		t.Fatal(err)
	}

	// Both hubs rebuild from scratch — the chaos hub from the member's
	// partial aggregates, the control from raw facts — and their charts
	// must agree bit for bit.
	if _, err := hub.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	if _, err := control.AggregateFederation(); err != nil {
		t.Fatal(err)
	}
	for _, req := range []aggregate.Request{
		{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year},
		{MetricID: jobs.MetricWallHours, GroupBy: jobs.DimQueue, Period: aggregate.Month},
		{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: aggregate.Quarter},
	} {
		got, err := hub.Query("Jobs", req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.Query("Jobs", req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pushdown chart %s/%s diverged under faults:\nchaos:   %+v\ncontrol: %+v",
				req.MetricID, req.GroupBy, got, want)
		}
	}
}
