package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
)

// pushSatCfg is a satellite config in pushdown mode. Its aggregation
// levels match the hub's (satCfg's instance-local levels would be
// soft-declined on the digest check).
func pushSatCfg(name string, resources []string, hubAddr string) config.InstanceConfig {
	cfg := satCfg(name, resources, hubAddr)
	cfg.AggregationLevels = []config.AggregationLevels{
		config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
	}
	cfg.Replication.Mode = "pushdown"
	cfg.Replication.PushdownFlushInterval = "20ms"
	return cfg
}

// chartBits runs a set of chart queries and renders every series
// bit-exactly (Float64bits) for cross-hub comparison.
func chartBits(t *testing.T, hub *Hub) []string {
	t.Helper()
	reqs := []aggregate.Request{
		{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimResource, Period: aggregate.Month},
		{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimUser, Period: aggregate.Quarter},
		{MetricID: jobs.MetricAvgWaitHours, GroupBy: jobs.DimResource, Period: aggregate.Year},
		{MetricID: jobs.MetricCPUHours, Period: aggregate.Day},
	}
	var out []string
	for qi, req := range reqs {
		series, err := hub.Query("Jobs", req)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			line := fmt.Sprintf("q%d|%s|%016x", qi, s.Group, math.Float64bits(s.Aggregate))
			for _, p := range s.Points {
				line += fmt.Sprintf("|%d:%016x", p.PeriodKey, math.Float64bits(p.Value))
			}
			out = append(out, line)
		}
	}
	return out
}

// TestMixedFederationPushdownMatchesFactControl is the federation-level
// equivalence property: a hub serving one pushdown satellite, one
// fact-mode satellite and one loose-dump member must produce charts
// and aggregation tables bit-identical to a control hub where every
// member replicates raw facts — across an initial load, an incremental
// wave, and with chart queries racing replication. Run under -race via
// `make race`.
func TestMixedFederationPushdownMatchesFactControl(t *testing.T) {
	type fed struct {
		hub  *Hub
		sats map[string]*Satellite
		stop []func()
	}
	build := func(ctx context.Context, label string, pushdownP bool) *fed {
		hub, err := NewHub(hubCfg("fedhub"))
		if err != nil {
			t.Fatal(err)
		}
		addr, err := hub.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f := &fed{hub: hub, sats: map[string]*Satellite{}, stop: []func(){hub.Close}}
		for _, name := range []string{"P", "F", "L"} {
			if err := hub.Register(name); err != nil {
				t.Fatal(err)
			}
		}
		// P pushes down (on the pushdown side), F always replicates
		// facts, L ships a loose dump.
		pCfg := satCfg("P", []string{"pres"}, addr)
		if pushdownP {
			pCfg = pushSatCfg("P", []string{"pres"}, addr)
		}
		p, err := NewSatellite(pCfg)
		if err != nil {
			t.Fatal(err)
		}
		fSat, err := NewSatellite(satCfg("F", []string{"fres"}, addr))
		if err != nil {
			t.Fatal(err)
		}
		f.sats["P"], f.sats["F"] = p, fSat
		ingestJobs(t, p, "pres", 40, 90*time.Minute, 1)
		ingestJobs(t, fSat, "fres", 25, 2*time.Hour, 1)
		for _, s := range []*Satellite{p, fSat} {
			if err := s.StartFederation(ctx); err != nil {
				t.Fatal(err)
			}
			s := s
			f.stop = append(f.stop, s.StopFederation)
		}
		looseCfg := satCfg("L", []string{"lres"}, "")
		looseCfg.Hubs = []config.HubRoute{{HubAddr: "offline", Mode: "loose"}}
		loose, err := NewSatellite(looseCfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestJobs(t, loose, "lres", 12, time.Hour, 1)
		var dump bytes.Buffer
		if err := loose.DumpForRoute(looseCfg.Hubs[0], &dump); err != nil {
			t.Fatal(err)
		}
		if err := hub.LoadLooseDump("L", &dump); err != nil {
			t.Fatal(err)
		}
		return f
	}

	converged := func(f *fed, pushdownP bool) bool {
		members := map[string]Member{}
		for _, m := range f.hub.Members() {
			members[m.Name] = m
		}
		pHead := f.sats["P"].DB.Binlog().Last()
		fHead := f.sats["F"].DB.Binlog().Last()
		p, fm := members["P"], members["F"]
		if fm.Position != fHead {
			return false
		}
		if pushdownP {
			return p.Mode == "pushdown" && p.Position == pHead && p.DeltaCovered == pHead
		}
		return p.Position == pHead
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	push := build(ctx, "push", true)
	ctrl := build(ctx, "ctrl", false)
	defer func() {
		for _, f := range []*fed{push, ctrl} {
			for i := len(f.stop) - 1; i >= 0; i-- {
				f.stop[i]()
			}
		}
	}()

	// Chart queries race replication on both hubs throughout.
	raceCtx, raceCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, h := range []*Hub{push.hub, ctrl.hub} {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for raceCtx.Err() == nil {
				h.Query("Jobs", aggregate.Request{
					MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimResource, Period: aggregate.Month,
				})
			}
		}()
	}

	waitFor(t, func() bool { return converged(push, true) && converged(ctrl, false) })

	compare := func(stage string) {
		t.Helper()
		for _, f := range []*fed{push, ctrl} {
			if err := f.hub.EnsureAggregated(); err != nil {
				t.Fatal(err)
			}
		}
		gotTables := hubAggSnapshot(t, push.hub, "Jobs")
		wantTables := hubAggSnapshot(t, ctrl.hub, "Jobs")
		if len(wantTables) == 0 {
			t.Fatalf("%s: control hub has no aggregates", stage)
		}
		if strings.Join(gotTables, "\n") != strings.Join(wantTables, "\n") {
			t.Fatalf("%s: aggregation tables differ (%d vs %d rows)", stage, len(gotTables), len(wantTables))
		}
		gotCharts := chartBits(t, push.hub)
		wantCharts := chartBits(t, ctrl.hub)
		if strings.Join(gotCharts, "\n") != strings.Join(wantCharts, "\n") {
			t.Fatalf("%s: charts differ:\n pushdown: %v\n control:  %v", stage, gotCharts, wantCharts)
		}
	}
	compare("initial")

	// The pushdown hub must hold the member's partials, not its raw
	// facts; the control hub holds raw facts.
	if got := push.hub.DB.Count("fed_P", jobs.FactTable); got != 0 {
		t.Errorf("pushdown hub materialized %d raw fact rows for member P", got)
	}
	if got := ctrl.hub.DB.Count("fed_P", jobs.FactTable); got != 40 {
		t.Errorf("control hub has %d fact rows for member P, want 40", got)
	}
	modes := map[string]string{}
	for _, m := range push.hub.Members() {
		modes[m.Name] = m.Mode
	}
	if modes["P"] != "pushdown" || modes["F"] != "facts" || modes["L"] != "loose" {
		t.Errorf("member modes = %v", modes)
	}

	// Incremental wave: new facts on both satellites exercise the
	// delta upsert path against live incremental fact folding.
	for _, f := range []*fed{push, ctrl} {
		ingestJobs(t, f.sats["P"], "pres", 15, 45*time.Minute, 1000)
		ingestJobs(t, f.sats["F"], "fres", 10, 3*time.Hour, 1000)
	}
	waitFor(t, func() bool { return converged(push, true) && converged(ctrl, false) })
	compare("incremental")

	raceCancel()
	wg.Wait()
}

// TestPushdownModeSwitchGuard: once a member has pushed down partial
// aggregates, reconnecting in facts mode (or with a realm dropped from
// the grant) must be rejected hard — the hub holds partials, not facts,
// so silently resuming fact replication would double-count or serve
// holes. A wrong levels digest stays a soft decline.
func TestPushdownModeSwitchGuard(t *testing.T) {
	hub, err := NewHub(hubCfg("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Register("s"); err != nil {
		t.Fatal(err)
	}
	digest := hub.Engine.LevelsDigest()

	// Digest mismatch: soft decline, connection proceeds in facts mode.
	err = hub.NegotiatePushdown("s", replicate.PushdownRequest{
		Enabled: true, Realms: []string{"Jobs"}, LevelsDigest: "bogus",
	})
	if !errors.Is(err, replicate.ErrPushdownDeclined) {
		t.Fatalf("digest mismatch: got %v, want soft decline", err)
	}

	// Matching offer: granted.
	if err := hub.NegotiatePushdown("s", replicate.PushdownRequest{
		Enabled: true, Realms: []string{"Jobs"}, LevelsDigest: digest,
	}); err != nil {
		t.Fatalf("grant failed: %v", err)
	}

	// Push one real delta so the member has pagg residue.
	sat, err := NewSatellite(pushSatCfg("s", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 5, time.Hour, 1)
	info, _ := sat.Registry.Get("Jobs")
	df, err := sat.Engine.NewDeltaFolder(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Reset(nil); err != nil {
		t.Fatal(err)
	}
	d, ok := df.Flush()
	if !ok {
		t.Fatal("no delta")
	}
	if err := hub.ApplyDeltas(context.Background(), "s", d.CoveredLSN, []aggregate.Delta{d}); err != nil {
		t.Fatal(err)
	}

	// Facts-mode reconnect over residue: hard reject, not a decline.
	err = hub.NegotiatePushdown("s", replicate.PushdownRequest{Enabled: false})
	if err == nil || errors.Is(err, replicate.ErrPushdownDeclined) {
		t.Fatalf("facts reconnect over residue: got %v, want hard reject", err)
	}
	// Dropping the realm from the grant is the same hazard.
	err = hub.NegotiatePushdown("s", replicate.PushdownRequest{
		Enabled: true, Realms: []string{"Storage"}, LevelsDigest: digest,
	})
	if err == nil || errors.Is(err, replicate.ErrPushdownDeclined) {
		t.Fatalf("realm dropped from grant over residue: got %v, want hard reject", err)
	}
	// Re-offering the same grant stays fine.
	if err := hub.NegotiatePushdown("s", replicate.PushdownRequest{
		Enabled: true, Realms: []string{"Jobs"}, LevelsDigest: digest,
	}); err != nil {
		t.Fatalf("re-grant failed: %v", err)
	}
	// Deltas for a realm outside the grant are rejected.
	if err := hub.ApplyDeltas(context.Background(), "s", 1,
		[]aggregate.Delta{{Realm: "Storage"}}); err == nil {
		t.Fatal("delta outside the grant was applied")
	}
}

// TestPushdownSkipsUnmergeableRealm: a realm whose metrics the delta
// fold cannot merge must fall back to raw fact replication with a
// warning — never a silently-wrong merge. A route with no mergeable
// realm disables pushdown entirely (nil folder, facts mode).
func TestPushdownSkipsUnmergeableRealm(t *testing.T) {
	sat, err := NewSatellite(pushSatCfg("s", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the registry with the Storage realm carrying a metric
	// function the delta fold has no merge rule for.
	reg := realm.NewRegistry()
	for _, name := range sat.Registry.Names() {
		info, _ := sat.Registry.Get(name)
		if name == "Storage" {
			info.Metrics = append([]realm.Metric(nil), info.Metrics...)
			info.Metrics[0].Func = warehouse.AggFunc(99)
		}
		if err := reg.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	sat.Registry = reg

	route := config.HubRoute{HubAddr: "x", Mode: "tight", IncludeRealms: []string{"Jobs", "Storage"}}
	pf, err := sat.pushdownFolderFor(route, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil {
		t.Fatal("mergeable Jobs realm should still push down")
	}
	if realms := pf.Realms(); len(realms) != 1 || realms[0] != "Jobs" {
		t.Errorf("pushed-down realms = %v, want [Jobs] (unmergeable Storage must fall back to facts)", realms)
	}

	onlyWeird := config.HubRoute{HubAddr: "x", Mode: "tight", IncludeRealms: []string{"Storage"}}
	pf, err = sat.pushdownFolderFor(onlyWeird, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pf != nil {
		t.Error("route with no mergeable realm must disable pushdown, not merge wrong")
	}
}

// TestPushdownIdleMemberFlushesOnInterval: bins that turn dirty less
// than one flush interval after the previous flush must ship when that
// interval has passed, although the binlog stands still from then on —
// not at the next idle heartbeat (5 s by default). The member's binlog
// ends in fact inserts, so once they are flushed it shows delta_lag 0.
func TestPushdownIdleMemberFlushesOnInterval(t *testing.T) {
	const interval = 500 * time.Millisecond
	hub, err := NewHub(hubCfg("fedhub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if err := hub.Register("P"); err != nil {
		t.Fatal(err)
	}
	cfg := pushSatCfg("P", []string{"pres"}, addr)
	cfg.Replication.PushdownFlushInterval = interval.String()
	sat, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "pres", 20, time.Hour, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sat.StartFederation(ctx); err != nil {
		t.Fatal(err)
	}
	defer sat.StopFederation()
	deltaLag := func() (lag uint64, converged bool) {
		m := hub.Members()[0]
		head := sat.DB.Binlog().Last()
		return m.Position - m.DeltaCovered, m.Mode == "pushdown" && m.Position == head && m.DeltaCovered == head
	}
	// The connect-time reset flush covers the first batch at once.
	waitFor(t, func() bool { _, ok := deltaLag(); return ok })

	// The second batch lands right behind that flush.
	ingestJobs(t, sat, "pres", 10, 2*time.Hour, 1000)
	deadline := time.Now().Add(2 * interval)
	for {
		lag, ok := deltaLag()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("two flush intervals after the last ingest the idle member still shows delta_lag %d", lag)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
