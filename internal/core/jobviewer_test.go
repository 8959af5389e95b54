package core

import (
	"testing"
	"time"

	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/warehouse"
)

// storePerfJob writes one job's SUPReMM summary the way a summarizer
// would, from its cpu_user samples: their average and peak (the other
// metrics are 0).
func storePerfJob(t *testing.T, db *warehouse.DB, resource string, jobID int64, start time.Time, cpuUser []float64) {
	t.Helper()
	var total, peak float64
	for _, v := range cpuUser {
		total += v
		peak = max(peak, v)
	}
	sum := map[string]any{"job_id": jobID, "resource": resource, "start_time": start,
		"n_samples": int64(len(cpuUser)), "month_key": int64(start.Year())*100 + int64(start.Month())}
	for _, m := range perf.MetricNames {
		sum["avg_"+m], sum["peak_"+m] = 0.0, 0.0
	}
	sum["avg_cpu_user"], sum["peak_cpu_user"] = total/float64(len(cpuUser)), peak
	if err := db.Upsert(perf.SchemaName, perf.SummaryTable, sum); err != nil {
		t.Fatal(err)
	}
}

func TestJobDetail(t *testing.T) {
	sat, err := NewSatellite(satCfg("s", []string{"rush"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, sat, "rush", 3, 2*time.Hour, 1)

	// Attach a SUPReMM summary to job 2: cpu_user climbs 50..59.
	var cpuUser []float64
	for i := 0; i < 10; i++ {
		cpuUser = append(cpuUser, float64(50+i))
	}
	storePerfJob(t, sat.DB, "rush", 2, time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC), cpuUser)

	detail, err := sat.Instance.JobDetail("rush", 2)
	if err != nil {
		t.Fatal(err)
	}
	if detail.Accounting.JobID != 2 || detail.Accounting.Cores != 8 || detail.Accounting.WallSec != 7200 {
		t.Errorf("accounting = %+v", detail.Accounting)
	}
	if !detail.HasPerf {
		t.Fatal("perf summary missing")
	}
	if detail.AvgMetrics["cpu_user"] != 54.5 || detail.PeakMetrics["cpu_user"] != 59 {
		t.Errorf("summary = avg %g peak %g", detail.AvgMetrics["cpu_user"], detail.PeakMetrics["cpu_user"])
	}

	// A job without perf data still has accounting.
	plain, err := sat.Instance.JobDetail("rush", 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasPerf || plain.AvgMetrics != nil {
		t.Errorf("job 1 should have no perf detail: %+v", plain)
	}

	if _, err := sat.Instance.JobDetail("rush", 999); err == nil {
		t.Error("missing job should error")
	}
	if _, err := sat.Instance.JobDetail("ghost", 1); err == nil {
		t.Error("missing resource should error")
	}
}

func TestJobDetailOnHubLacksSatelliteOnlyParts(t *testing.T) {
	// The hub's own realm schemas are empty (its data lives in
	// fed_<instance> schemas), so JobDetail on the hub's local schema
	// errors for replicated jobs — the Job Viewer's deep detail is a
	// satellite feature, matching §II-C5.
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Instance.JobDetail("anything", 1); err == nil {
		t.Error("hub-local job detail for unreplicated job should error")
	}
}

func TestAllocationsRealmRegistered(t *testing.T) {
	sat, err := NewSatellite(satCfg("s", []string{"rush"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	names := sat.Registry.Names()
	want := map[string]bool{"Allocations": true, "Cloud": true, "Gateways": true, "Jobs": true, "SUPReMM": true, "Storage": true}
	if len(names) != len(want) {
		t.Fatalf("realms = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected realm %q", n)
		}
	}
}
