package core

import (
	"context"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/workload"
)

// TestMultiRealmFederation exercises the full heterogeneous-resources
// story of paper §III: one satellite monitors HPC, cloud and storage
// resources and profiles jobs with SUPReMM; a route federating all
// four realms fans everything into the hub — except the SUPReMM
// detail tables, which must remain satellite-only (§II-C5).
func TestMultiRealmFederation(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.Register("center")

	cfg := satCfg("center", []string{"cluster"}, addr)
	cfg.Resources = append(cfg.Resources,
		config.ResourceConfig{Name: "research-cloud", Type: "cloud"},
		config.ResourceConfig{Name: "isilon", Type: "storage"},
	)
	cfg.Hubs[0].IncludeRealms = []string{"Jobs", "Cloud", "Storage", "SUPReMM"}
	sat, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// HPC jobs + SUPReMM profiles.
	ingestJobs(t, sat, "cluster", 20, time.Hour, 1)
	recs := workload.GenerateJobs(workload.ResourceModel{
		Name: "cluster", CoresPerNode: 8, MaxNodes: 4, SUFactor: 1,
		MonthlyWeight: [12]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		MeanWallHours: 1, QueueNames: []string{"q"}, Users: 4,
	}, 1, 7)
	for _, rec := range recs[:5] {
		storePerfJob(t, sat.DB, rec.Resource, rec.LocalJobID, rec.Start, []float64{40, 60, 80})
	}

	// Cloud events.
	t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	events := []cloud.Event{
		{VMID: "vm1", Resource: "research-cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvStart, Time: t0, Cores: 4, MemoryGB: 8},
		{VMID: "vm1", Resource: "research-cloud", User: "u", Project: "p", InstanceType: "m1",
			Type: cloud.EvTerminate, Time: t0.Add(10 * time.Hour), Cores: 4, MemoryGB: 8},
	}
	if _, err := sat.Pipeline.IngestCloudEvents(events, t0.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}

	// Storage snapshots.
	snaps := []storage.Snapshot{{
		Resource: "isilon", ResourceType: "persistent", Mountpoint: "/home",
		User: "u", PI: "p", Timestamp: t0, FileCount: 100, LogicalBytes: 1000, PhysicalBytes: 1200,
	}}
	if _, err := sat.Pipeline.IngestStorageSnapshots(snaps); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sat.StartFederation(ctx); err != nil {
		t.Fatal(err)
	}
	defer sat.StopFederation()

	waitFor(t, func() bool {
		return hub.DB.Count("fed_center", "jobfact") == 20 &&
			hub.DB.Count("fed_center", cloud.SessionTable) == 1 &&
			hub.DB.Count("fed_center", storage.FactTable) == 1 &&
			hub.DB.Count("fed_center", perf.SummaryTable) == 5
	})

	// Hub queries work per realm over the federated data.
	for realmName, metric := range map[string]string{
		"Jobs":    "job_count",
		"Cloud":   cloud.MetricCoreHours,
		"Storage": storage.MetricFileCount,
		"SUPReMM": "job_count",
	} {
		series, err := hub.Query(realmName, aggregate.Request{MetricID: metric, Period: aggregate.Year})
		if err != nil {
			t.Fatalf("%s query: %v", realmName, err)
		}
		if len(series) == 0 || series[0].Aggregate == 0 {
			t.Errorf("%s federated view empty: %+v", realmName, series)
		}
	}
	// Cloud core hours specifically: 4 cores * 10 h.
	cs, _ := hub.Query("Cloud", aggregate.Request{MetricID: cloud.MetricCoreHours, Period: aggregate.Year})
	if cs[0].Aggregate != 40 {
		t.Errorf("federated cloud core hours = %g, want 40", cs[0].Aggregate)
	}
}
