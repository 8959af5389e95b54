package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
)

func satCfg(name string, resources []string, hubAddr string) config.InstanceConfig {
	cfg := config.InstanceConfig{
		Name:    name,
		Version: Version,
		AggregationLevels: []config.AggregationLevels{
			config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
	for _, r := range resources {
		cfg.Resources = append(cfg.Resources, config.ResourceConfig{Name: r, Type: "hpc", SUFactor: 1.0})
	}
	if hubAddr != "" {
		cfg.Hubs = []config.HubRoute{{HubAddr: hubAddr, Mode: "tight"}}
	}
	return cfg
}

func hubCfg(name string) config.InstanceConfig {
	return config.InstanceConfig{
		Name:    name,
		Version: Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
}

// ingestJobs loads n jobs onto a satellite for the given resource with
// the given wall time.
func ingestJobs(t testing.TB, s *Satellite, resource string, n int, wall time.Duration, startID int64) {
	t.Helper()
	var recs []shredder.JobRecord
	base := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i) * 2 * time.Hour).Add(wall)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: startID + int64(i), User: fmt.Sprintf("user%d", i%4), Account: "acct",
			Resource: resource, Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-wall - 30*time.Minute),
			Start:  end.Add(-wall),
			End:    end,
		})
	}
	st, err := s.Pipeline.IngestJobRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != n {
		t.Fatalf("ingested %d of %d: %v", st.Ingested, n, st.Errors)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}

// TestFanInTopology reproduces Figure 2: satellites X, Y, Z monitoring
// resources L, M, N federate into one hub, whose unified view equals
// the union of the satellites' data.
func TestFanInTopology(t *testing.T) {
	hub, err := NewHub(hubCfg("fedhub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	counts := map[string]int{"X": 30, "Y": 20, "Z": 10}
	resources := map[string]string{"X": "L", "Y": "M", "Z": "N"}
	for _, name := range []string{"X", "Y", "Z"} {
		if err := hub.Register(name); err != nil {
			t.Fatal(err)
		}
		sat, err := NewSatellite(satCfg(name, []string{resources[name]}, addr))
		if err != nil {
			t.Fatal(err)
		}
		ingestJobs(t, sat, resources[name], counts[name], time.Hour, 1)
		if err := sat.StartFederation(ctx); err != nil {
			t.Fatal(err)
		}
		defer sat.StopFederation()
	}

	waitFor(t, func() bool {
		total := 0
		for _, name := range []string{"X", "Y", "Z"} {
			total += hub.DB.Count("fed_"+name, jobs.FactTable)
		}
		return total == 60
	})

	series, err := hub.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range series {
		got[s.Group] = s.Aggregate
	}
	if got["L"] != 30 || got["M"] != 20 || got["N"] != 10 {
		t.Errorf("federated view = %v", got)
	}

	st := hub.Status()
	if len(st.Members) != 3 || st.Members[0].Events == 0 {
		t.Errorf("status = %+v", st)
	}
}

// TestSelectiveRouting reproduces Figure 3's filtering note (§II-C4):
// resources B and D are excluded from federation; A and C replicate.
func TestSelectiveRouting(t *testing.T) {
	hub, err := NewHub(hubCfg("fedhub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("siteX")
	hub.Register("siteY")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfgX := satCfg("siteX", []string{"A", "B"}, addr)
	cfgX.Hubs[0].ExcludeResources = []string{"B"} // B holds sensitive data
	satX, err := NewSatellite(cfgX)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, satX, "A", 15, time.Hour, 1)
	ingestJobs(t, satX, "B", 9, time.Hour, 100)

	cfgY := satCfg("siteY", []string{"C", "D"}, addr)
	cfgY.Hubs[0].ExcludeResources = []string{"D"}
	satY, err := NewSatellite(cfgY)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, satY, "C", 12, time.Hour, 1)
	ingestJobs(t, satY, "D", 7, time.Hour, 100)

	for _, s := range []*Satellite{satX, satY} {
		if err := s.StartFederation(ctx); err != nil {
			t.Fatal(err)
		}
		defer s.StopFederation()
	}

	waitFor(t, func() bool {
		return hub.DB.Count("fed_siteX", jobs.FactTable) == 15 &&
			hub.DB.Count("fed_siteY", jobs.FactTable) == 12
	})

	series, err := hub.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range series {
		seen[s.Group] = true
	}
	if !seen["A"] || !seen["C"] || seen["B"] || seen["D"] {
		t.Errorf("hub sees %v; sensitive resources must never arrive", seen)
	}

	// Satellites keep full local visibility of their excluded resources.
	local, err := satX.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	localSeen := map[string]float64{}
	for _, s := range local {
		localSeen[s.Group] = s.Aggregate
	}
	if localSeen["B"] != 9 {
		t.Errorf("satellite lost local visibility of B: %v", localSeen)
	}
}

// TestTableIAggregationLevels reproduces Table I end to end: instances
// A and B aggregate the same kinds of jobs under different local
// levels, while the hub re-aggregates the union under its own levels.
func TestTableIAggregationLevels(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("instanceA")
	hub.Register("instanceB")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Instance A: 5-hour wall limit, fine-grained levels.
	cfgA := satCfg("instanceA", []string{"short-cluster"}, addr)
	cfgA.AggregationLevels[0] = config.InstanceAWallTime()
	satA, err := NewSatellite(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, satA, "short-cluster", 5, 30*time.Second, 1)
	ingestJobs(t, satA, "short-cluster", 7, 30*time.Minute, 100)
	ingestJobs(t, satA, "short-cluster", 3, 4*time.Hour, 200)

	// Instance B: 50-hour wall limit, coarse levels.
	cfgB := satCfg("instanceB", []string{"long-cluster"}, addr)
	cfgB.AggregationLevels[0] = config.InstanceBWallTime()
	satB, err := NewSatellite(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, satB, "long-cluster", 4, 8*time.Hour, 1)
	ingestJobs(t, satB, "long-cluster", 6, 15*time.Hour, 100)
	ingestJobs(t, satB, "long-cluster", 2, 40*time.Hour, 200)

	for _, s := range []*Satellite{satA, satB} {
		if err := s.StartFederation(ctx); err != nil {
			t.Fatal(err)
		}
		defer s.StopFederation()
	}
	waitFor(t, func() bool {
		return hub.DB.Count("fed_instanceA", jobs.FactTable) == 15 &&
			hub.DB.Count("fed_instanceB", jobs.FactTable) == 12
	})

	byBucket := func(series []aggregate.Series) map[string]float64 {
		out := map[string]float64{}
		for _, s := range series {
			out[s.Group] = s.Aggregate
		}
		return out
	}

	// Instance A groups its jobs by its own fine-grained levels.
	sa, err := satA.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	ga := byBucket(sa)
	if ga["1-60 seconds"] != 5 || ga["1-60 minutes"] != 7 || ga["1-5 hours"] != 3 {
		t.Errorf("instance A buckets = %v", ga)
	}

	// Instance B groups by its coarse levels.
	sb, err := satB.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	gb := byBucket(sb)
	if gb["1-10 hours"] != 4 || gb["10-20 hours"] != 6 || gb["20-50 hours"] != 2 {
		t.Errorf("instance B buckets = %v", gb)
	}

	// The hub re-aggregates ALL raw federation data under hub levels.
	sh, err := hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	gh := byBucket(sh)
	want := map[string]float64{
		"0-60 minutes": 12, // A's seconds + minutes jobs
		"1-5 hours":    3,
		"5-10 hours":   4,
		"10-20 hours":  6,
		"20-50 hours":  2,
	}
	for bucket, n := range want {
		if gh[bucket] != n {
			t.Errorf("hub bucket %q = %g, want %g (full map %v)", bucket, gh[bucket], n, gh)
		}
	}
}

// TestLooseFederationMixed: one member replicates tightly, another
// ships dumps — the paper's heterogeneous model (§II-C2).
func TestLooseFederationMixed(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("tightsite")
	hub.Register("loosesite")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	tight, err := NewSatellite(satCfg("tightsite", []string{"tr"}, addr))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, tight, "tr", 8, time.Hour, 1)
	tight.StartFederation(ctx)
	defer tight.StopFederation()

	looseCfg := satCfg("loosesite", []string{"lr"}, "")
	looseCfg.Hubs = []config.HubRoute{{HubAddr: "offline", Mode: "loose"}}
	loose, err := NewSatellite(looseCfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, loose, "lr", 5, time.Hour, 1)
	var dump bytes.Buffer
	if err := loose.DumpForRoute(looseCfg.Hubs[0], &dump); err != nil {
		t.Fatal(err)
	}
	if err := hub.LoadLooseDump("loosesite", &dump); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool { return hub.DB.Count("fed_tightsite", jobs.FactTable) == 8 })

	series, err := hub.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Aggregate != 13 {
		t.Errorf("federated total = %g, want 13", series[0].Aggregate)
	}

	// Loose dumps from unregistered instances are rejected.
	if err := hub.LoadLooseDump("rogue", bytes.NewReader(nil)); err == nil {
		t.Error("unregistered loose member accepted")
	}
}

func TestUnregisteredSatelliteRejected(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sat, err := NewSatellite(satCfg("rogue", []string{"r"}, addr))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 1, time.Hour, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sat.StartFederation(ctx)
	defer sat.StopFederation()
	time.Sleep(100 * time.Millisecond)
	if hub.DB.Schema("fed_rogue") != nil {
		t.Error("unregistered instance replicated data")
	}
}

func TestBackupRegeneration(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("site")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sat, err := NewSatellite(satCfg("site", []string{"r"}, addr))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "r", 25, time.Hour, 1)
	sat.StartFederation(ctx)
	waitFor(t, func() bool { return hub.DB.Count("fed_site", jobs.FactTable) == 25 })
	sat.StopFederation()

	// Disaster: the satellite loses its warehouse. Regenerate from hub.
	var backup bytes.Buffer
	if err := hub.RegenerateSatellite("site", &backup); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSatellite(satCfg("site", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreFromHubBackup(&backup); err != nil {
		t.Fatal(err)
	}
	if got := fresh.DB.Count(jobs.SchemaName, jobs.FactTable); got != 25 {
		t.Errorf("regenerated facts = %d, want 25", got)
	}
	series, err := fresh.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Aggregate != 25 {
		t.Errorf("regenerated aggregate = %g", series[0].Aggregate)
	}

	if err := hub.RegenerateSatellite("ghost", &backup); err == nil {
		t.Error("regenerating unknown instance should fail")
	}
}

func TestIdentityObservation(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("s1")
	hub.Register("s2")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"s1", "s2"} {
		sat, err := NewSatellite(satCfg(name, []string{name + "-r"}, addr))
		if err != nil {
			t.Fatal(err)
		}
		ingestJobs(t, sat, name+"-r", 4, time.Hour, 1)
		sat.StartFederation(ctx)
		defer sat.StopFederation()
	}
	// The hub observes a batch's identities in the transaction that
	// applies it, so once the facts are visible their users resolve.
	waitFor(t, func() bool {
		return hub.DB.Count("fed_s1", jobs.FactTable) == 4 && hub.DB.Count("fed_s2", jobs.FactTable) == 4
	})
	// user0 exists on both instances; without email evidence they stay
	// distinct persons (the paper's §II-D4 duplicate case)...
	id1, ok1 := hub.Identity.Resolve(auth.InstanceUser{Instance: "s1", Username: "user0"})
	id2, ok2 := hub.Identity.Resolve(auth.InstanceUser{Instance: "s2", Username: "user0"})
	if !ok1 || !ok2 {
		t.Fatal("identities not observed from replicated facts")
	}
	if id1 == id2 {
		t.Error("cross-instance accounts merged without evidence")
	}
	// ...until the hub admin links them.
	if err := hub.Identity.Link(
		auth.InstanceUser{Instance: "s1", Username: "user0"},
		auth.InstanceUser{Instance: "s2", Username: "user0"},
	); err != nil {
		t.Fatal(err)
	}
	accts := hub.Identity.AccountsOf(auth.InstanceUser{Instance: "s1", Username: "user0"})
	if len(accts) != 2 {
		t.Errorf("linked accounts = %v", accts)
	}

	// A loose member's usernames arrive in its dump's LOAD payloads.
	hub.Register("s3")
	looseCfg := satCfg("s3", []string{"s3-r"}, "")
	looseCfg.Hubs = []config.HubRoute{{HubAddr: "offline", Mode: "loose"}}
	loose, err := NewSatellite(looseCfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, loose, "s3-r", 4, time.Hour, 1)
	var dump bytes.Buffer
	if err := loose.DumpForRoute(looseCfg.Hubs[0], &dump); err != nil {
		t.Fatal(err)
	}
	if err := hub.LoadLooseDump("s3", &dump); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"user0", "user1", "user2", "user3"} {
		if _, ok := hub.Identity.Resolve(auth.InstanceUser{Instance: "s3", Username: user}); !ok {
			t.Errorf("loose member s3's %s not observed from its dump", user)
		}
	}
}

func TestInstanceValidation(t *testing.T) {
	if _, err := NewInstance(config.InstanceConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSatellite(config.InstanceConfig{Name: "x", Version: "1",
		Resources: []config.ResourceConfig{{Name: "r", Type: "warp-drive"}}}); err == nil {
		t.Error("bad resource type accepted")
	}
}

func TestRewriterForUnknownRealm(t *testing.T) {
	sat, err := NewSatellite(satCfg("s", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sat.rewriterFor(config.HubRoute{HubAddr: "h", Mode: "tight", IncludeRealms: []string{"Quantum"}})
	if err == nil {
		t.Error("unknown realm accepted in route")
	}
}

func TestHubRegisterValidation(t *testing.T) {
	hub, _ := NewHub(hubCfg("hub"))
	if err := hub.Register(""); err == nil {
		t.Error("empty member accepted")
	}
	if err := hub.Register("a"); err != nil {
		t.Fatal(err)
	}
	if err := hub.Register("a"); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestQueryUnknownRealm(t *testing.T) {
	sat, _ := NewSatellite(satCfg("s", []string{"r"}, ""))
	if _, err := sat.Query("Nope", aggregate.Request{}); err == nil {
		t.Error("unknown realm accepted")
	}
}
