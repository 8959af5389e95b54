package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
)

// satelliteConfig builds a satellite monitoring one set of resources,
// routing to hubAddr with optional resource exclusions.
func satelliteConfig(name string, resources []string, hubAddr string, exclude []string) config.InstanceConfig {
	cfg := config.InstanceConfig{
		Name:    name,
		Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.InstanceAWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
	for _, r := range resources {
		cfg.Resources = append(cfg.Resources, config.ResourceConfig{Name: r, Type: "hpc", SUFactor: 1.0})
	}
	if hubAddr != "" {
		cfg.Hubs = []config.HubRoute{{HubAddr: hubAddr, Mode: "tight", ExcludeResources: exclude}}
	}
	return cfg
}

func hubConfig(name string) config.InstanceConfig {
	return config.InstanceConfig{
		Name:    name,
		Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
}

// syntheticJobs generates n plain jobs for one resource spread over
// 2017 with the given wall time.
func syntheticJobs(resource string, n int, wall time.Duration, seed int64) []shredder.JobRecord {
	var recs []shredder.JobRecord
	base := time.Date(2017, 1, 15, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.AddDate(0, i%12, 0).Add(time.Duration(i%20) * time.Hour).Add(wall)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("%suser%d", resource, i%5), Account: "proj",
			Resource: resource, Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-wall - 15*time.Minute), Start: end.Add(-wall), End: end,
			ExitState: "COMPLETED",
		})
	}
	_ = seed
	return recs
}

// waitUntil polls cond for up to 10 seconds.
func waitUntil(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("report: replication did not converge in time")
}

// RunFig2 regenerates Figure 2: a fan-in federation in which
// independent resources L, M, N are monitored by satellite instances
// X, Y, Z, each replicating live into a federated hub whose unified
// view covers all of them.
func RunFig2(opts Options) (*Result, error) {
	hub, err := core.NewHub(hubConfig("federated-hub"))
	if err != nil {
		return nil, err
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sats := []struct {
		name, resource string
		n              int
	}{
		{"instanceX", "resourceL", opts.Scale},
		{"instanceY", "resourceM", opts.Scale * 2 / 3},
		{"instanceZ", "resourceN", opts.Scale / 2},
	}
	satCounts := map[string]float64{}
	total := 0
	for _, s := range sats {
		if err := hub.Register(s.name); err != nil {
			return nil, err
		}
		sat, err := core.NewSatellite(satelliteConfig(s.name, []string{s.resource}, addr, nil))
		if err != nil {
			return nil, err
		}
		if _, err := sat.Pipeline.IngestJobRecords(syntheticJobs(s.resource, s.n, time.Hour, opts.Seed)); err != nil {
			return nil, err
		}
		if err := sat.StartFederation(ctx); err != nil {
			return nil, err
		}
		defer sat.StopFederation()
		satCounts[s.name+" ("+s.resource+")"] = float64(s.n)
		total += s.n
	}

	if err := waitUntil(func() bool {
		got := 0
		for _, s := range sats {
			got += hub.DB.Count("fed_"+s.name, jobs.FactTable)
		}
		return got == total
	}); err != nil {
		return nil, err
	}

	series, err := hub.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year,
	})
	if err != nil {
		return nil, err
	}
	hubView := map[string]float64{}
	var hubTotal float64
	for _, s := range series {
		hubView[s.Group] = s.Aggregate
		hubTotal += s.Aggregate
	}

	var b strings.Builder
	b.WriteString("Topology: satellites X, Y, Z each monitor one resource and replicate\n")
	b.WriteString("live (tight federation) into the federated hub.\n\n")
	b.WriteString(formatMap("Jobs ingested per satellite:", satCounts, "jobs"))
	b.WriteByte('\n')
	b.WriteString(formatMap("Hub unified view (jobs by resource):", hubView, "jobs"))
	st := hub.Status()
	fmt.Fprintf(&b, "\nFederation status: %d members", len(st.Members))
	for _, m := range st.Members {
		fmt.Fprintf(&b, "; %s@LSN %d", m.Name, m.Position)
	}
	b.WriteByte('\n')

	checks := []Check{
		check("hub total equals sum of satellite ingests", hubTotal == float64(total),
			"hub=%.0f sum=%d", hubTotal, total),
		check("hub sees every resource",
			hubView["resourceL"] > 0 && hubView["resourceM"] > 0 && hubView["resourceN"] > 0,
			"%v", hubView),
		check("per-resource counts replicated exactly",
			hubView["resourceL"] == float64(sats[0].n) &&
				hubView["resourceM"] == float64(sats[1].n) &&
				hubView["resourceN"] == float64(sats[2].n), "%v", hubView),
	}
	return &Result{ID: "fig2", Title: "Fan-in federation of three satellites (Figure 2)",
		Text: b.String(), Checks: checks}, nil
}

// RunFig3 regenerates Figure 3's data flow: satellites ingest from
// heterogeneous resources, replicate to the hub, and the hub
// aggregates — with resources B and D selectively excluded from
// federation as §II-C4 describes.
func RunFig3(opts Options) (*Result, error) {
	hub, err := core.NewHub(hubConfig("federated-hub"))
	if err != nil {
		return nil, err
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	n := opts.Scale
	hub.Register("instanceX")
	hub.Register("instanceY")

	satX, err := core.NewSatellite(satelliteConfig("instanceX", []string{"resourceA", "resourceB"}, addr, []string{"resourceB"}))
	if err != nil {
		return nil, err
	}
	satX.Pipeline.IngestJobRecords(syntheticJobs("resourceA", n, time.Hour, opts.Seed))
	xb, _ := satX.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("resourceB", n/2, time.Hour, opts.Seed), 10000))

	satY, err := core.NewSatellite(satelliteConfig("instanceY", []string{"resourceC", "resourceD"}, addr, []string{"resourceD"}))
	if err != nil {
		return nil, err
	}
	satY.Pipeline.IngestJobRecords(syntheticJobs("resourceC", n*3/4, time.Hour, opts.Seed))
	yd, _ := satY.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("resourceD", n/3, time.Hour, opts.Seed), 10000))

	for _, s := range []*core.Satellite{satX, satY} {
		if err := s.StartFederation(ctx); err != nil {
			return nil, err
		}
		defer s.StopFederation()
	}
	if err := waitUntil(func() bool {
		return hub.DB.Count("fed_instanceX", jobs.FactTable) == n &&
			hub.DB.Count("fed_instanceY", jobs.FactTable) == n*3/4
	}); err != nil {
		return nil, err
	}

	series, err := hub.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Year,
	})
	if err != nil {
		return nil, err
	}
	hubView := map[string]float64{}
	for _, s := range series {
		hubView[s.Group] = s.Aggregate
	}

	var b strings.Builder
	b.WriteString("Data flow: resources A,B -> instance X; resources C,D -> instance Y.\n")
	b.WriteString("Routing excludes sensitive resources B and D from federation.\n\n")
	fmt.Fprintf(&b, "Stage 1  ingestion:    X holds %d jobs (A) + %d jobs (B); Y holds %d (C) + %d (D)\n",
		n, xb.Ingested, n*3/4, yd.Ingested)
	fmt.Fprintf(&b, "Stage 2  replication:  fed_instanceX=%d rows, fed_instanceY=%d rows\n",
		hub.DB.Count("fed_instanceX", jobs.FactTable), hub.DB.Count("fed_instanceY", jobs.FactTable))
	b.WriteString("Stage 3  aggregation:  hub view by resource:\n")
	b.WriteString(formatMap("", hubView, "jobs"))

	checks := []Check{
		check("resources A and C reach the hub", hubView["resourceA"] == float64(n) && hubView["resourceC"] == float64(n*3/4),
			"%v", hubView),
		check("sensitive resources B and D never reach the hub",
			hubView["resourceB"] == 0 && hubView["resourceD"] == 0, "%v", hubView),
		check("satellites retain local visibility of B and D",
			localCount(satX, "resourceB") == float64(n/2) && localCount(satY, "resourceD") == float64(n/3),
			"B=%g D=%g", localCount(satX, "resourceB"), localCount(satY, "resourceD")),
	}
	return &Result{ID: "fig3", Title: "Ingestion → replication → aggregation with selective routing (Figure 3)",
		Text: b.String(), Checks: checks}, nil
}

func offsetIDs(recs []shredder.JobRecord, by int64) []shredder.JobRecord {
	for i := range recs {
		recs[i].LocalJobID += by
	}
	return recs
}

func localCount(s *core.Satellite, resource string) float64 {
	series, err := s.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricNumJobs, Period: aggregate.Year,
		Filters: map[string]string{jobs.DimResource: resource},
	})
	if err != nil || len(series) == 0 {
		return 0
	}
	return series[0].Aggregate
}

// RunTable1 regenerates Table I: the same federated workload viewed
// under instance A's, instance B's, and the hub's wall-time
// aggregation levels.
func RunTable1(opts Options) (*Result, error) {
	hub, err := core.NewHub(hubConfig("federated-hub"))
	if err != nil {
		return nil, err
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	hub.Register("instanceA")
	hub.Register("instanceB")

	// Instance A monitors a resource with a 5-hour wall limit.
	cfgA := satelliteConfig("instanceA", []string{"short-cluster"}, addr, nil)
	cfgA.AggregationLevels[0] = config.InstanceAWallTime()
	satA, err := core.NewSatellite(cfgA)
	if err != nil {
		return nil, err
	}
	nA := opts.Scale / 10
	if nA < 3 {
		nA = 3
	}
	satA.Pipeline.IngestJobRecords(syntheticJobs("short-cluster", nA, 30*time.Second, opts.Seed))
	satA.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("short-cluster", nA*2, 20*time.Minute, opts.Seed), 1000))
	satA.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("short-cluster", nA, 3*time.Hour, opts.Seed), 2000))

	// Instance B monitors a resource with a 50-hour wall limit.
	cfgB := satelliteConfig("instanceB", []string{"long-cluster"}, addr, nil)
	cfgB.AggregationLevels[0] = config.InstanceBWallTime()
	satB, err := core.NewSatellite(cfgB)
	if err != nil {
		return nil, err
	}
	satB.Pipeline.IngestJobRecords(syntheticJobs("long-cluster", nA*2, 7*time.Hour, opts.Seed))
	satB.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("long-cluster", nA, 14*time.Hour, opts.Seed), 1000))
	satB.Pipeline.IngestJobRecords(offsetIDs(syntheticJobs("long-cluster", nA, 30*time.Hour, opts.Seed), 2000))

	totalJobs := nA*4 + nA*4
	for _, s := range []*core.Satellite{satA, satB} {
		if err := s.StartFederation(ctx); err != nil {
			return nil, err
		}
		defer s.StopFederation()
	}
	if err := waitUntil(func() bool {
		return hub.DB.Count("fed_instanceA", jobs.FactTable)+hub.DB.Count("fed_instanceB", jobs.FactTable) == totalJobs
	}); err != nil {
		return nil, err
	}

	buckets := func(series []aggregate.Series) map[string]float64 {
		m := map[string]float64{}
		for _, s := range series {
			m[s.Group] = s.Aggregate
		}
		return m
	}
	wallReq := aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimWallTime, Period: aggregate.Year}
	sa, err := satA.Query("Jobs", wallReq)
	if err != nil {
		return nil, err
	}
	sb, err := satB.Query("Jobs", wallReq)
	if err != nil {
		return nil, err
	}
	sh, err := hub.Query("Jobs", wallReq)
	if err != nil {
		return nil, err
	}
	ga, gb, gh := buckets(sa), buckets(sb), buckets(sh)

	// Render Table I with live job counts per level.
	rows := []struct{ a, b, h string }{
		{"1-60 seconds", "", ""},
		{"1-60 minutes", "", "0-60 minutes"},
		{"1-5 hours", "", "1-5 hours"},
		{"", "1-10 hours", "5-10 hours"},
		{"", "10-20 hours", "10-20 hours"},
		{"", "20-50 hours", "20-50 hours"},
	}
	var b strings.Builder
	b.WriteString("Job Wall Time aggregation levels (live job counts in parentheses):\n\n")
	fmt.Fprintf(&b, "  %-24s %-24s %-24s\n", "Instance A", "Instance B", "Federation Hub")
	cell := func(label string, m map[string]float64) string {
		if label == "" {
			return "-"
		}
		return fmt.Sprintf("%s (%.0f)", label, m[label])
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %-24s %-24s\n", cell(r.a, ga), cell(r.b, gb), cell(r.h, gh))
	}

	sum := func(m map[string]float64) (t float64) {
		for _, v := range m {
			t += v
		}
		return
	}
	checks := []Check{
		check("instance A bins its jobs into A's levels only",
			ga["1-60 seconds"] == float64(nA) && ga["1-60 minutes"] == float64(nA*2) && ga["1-5 hours"] == float64(nA),
			"%v", ga),
		check("instance B bins its jobs into B's levels only",
			gb["1-10 hours"] == float64(nA*2) && gb["10-20 hours"] == float64(nA) && gb["20-50 hours"] == float64(nA),
			"%v", gb),
		check("hub re-bins ALL federation data under hub levels",
			gh["0-60 minutes"] == float64(nA*3) && gh["1-5 hours"] == float64(nA) &&
				gh["5-10 hours"] == float64(nA*2) && gh["10-20 hours"] == float64(nA) && gh["20-50 hours"] == float64(nA),
			"%v", gh),
		check("no jobs lost in re-aggregation",
			sum(gh) == float64(totalJobs) && sum(ga)+sum(gb) == float64(totalJobs),
			"hub=%.0f satellites=%.0f", sum(gh), sum(ga)+sum(gb)),
	}
	return &Result{ID: "table1", Title: "Aggregation levels on hub and satellites (Table I)",
		Text: b.String(), Checks: checks}, nil
}
