package core

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
)

// multiRealmSatCfg is a satellite with HPC, cloud and storage resources.
func multiRealmSatCfg() config.InstanceConfig {
	cfg := satCfg("center", []string{"clusterA", "clusterB", "clusterC"}, "")
	cfg.Resources = append(cfg.Resources,
		config.ResourceConfig{Name: "research-cloud", Type: "cloud"},
		config.ResourceConfig{Name: "isilon", Type: "storage"},
	)
	return cfg
}

func cloudBatch(vm string, t0 time.Time) []cloud.Event {
	ev := cloud.Event{VMID: vm, Resource: "research-cloud", User: "u", Project: "p", InstanceType: "m1",
		Type: cloud.EvStart, Time: t0, Cores: 4, MemoryGB: 8}
	end := ev
	end.Type, end.Time = cloud.EvTerminate, t0.Add(7*time.Hour)
	return []cloud.Event{ev, end}
}

func storageBatch(t0 time.Time, files int64) []storage.Snapshot {
	var out []storage.Snapshot
	for _, user := range []string{"u1", "u2", "u3"} {
		out = append(out, storage.Snapshot{
			Resource: "isilon", ResourceType: "persistent", Mountpoint: "/home",
			User: user, PI: "p", Timestamp: t0, FileCount: files, LogicalBytes: 1000 * files, PhysicalBytes: 1200 * files,
		})
	}
	return out
}

// derivedTable reports whether a binlog event names an aggregation
// schema or a partial-aggregate table.
func derivedTable(ev warehouse.Event) bool {
	return strings.Contains(ev.Schema, aggregate.AggSchemaSuffix) || strings.Contains(ev.Table, "_pagg_")
}

// TestDerivedTablesAreNeverLogged: on a satellite with a WAL, ingest
// logs the raw realm rows it wrote and nothing else — no insert, update,
// truncate, load or table DDL of an aggregation table reaches the binlog
// or the WAL file, although every ingest folds into (or recomputes) them.
// The subtest keeps its name from when the aggregate shard count was a
// parameter: 0 was the default, one table set per realm, which is now
// the only layout.
func TestDerivedTablesAreNeverLogged(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		sat, err := NewSatellite(multiRealmSatCfg())
		if err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(t.TempDir(), "binlog.wal")
		wal, err := warehouse.OpenLogWriterOpts(sat.DB, walPath, 0, warehouse.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		log := sat.DB.Binlog()
		setup := log.Last()

		const n = 60
		ingestJobs(t, sat, "clusterA", n, time.Hour, 1)
		if got := log.Last() - setup; got != n {
			t.Errorf("ingesting %d new facts advanced the binlog by %d events", n, got)
		}
		// A second batch folds into existing aggregation rows (upserts).
		ingestJobs(t, sat, "clusterB", n, 2*time.Hour, 1)
		if got := log.Last() - setup; got != 2*n {
			t.Errorf("ingesting %d new facts advanced the binlog by %d events", 2*n, got)
		}
		t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
		for i, vm := range []string{"vm1", "vm2"} {
			at := t0.Add(time.Duration(i) * 24 * time.Hour)
			if _, err := sat.Pipeline.IngestCloudEvents(cloudBatch(vm, at), at.Add(48*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 2; i++ {
			if _, err := sat.Pipeline.IngestStorageSnapshots(storageBatch(t0, 100+i)); err != nil {
				t.Fatal(err)
			}
		}
		if cs, err := sat.Query("Cloud", aggregate.Request{MetricID: cloud.MetricCoreHours, Period: aggregate.Year}); err != nil || cs[0].Aggregate != 56 {
			t.Fatalf("cloud aggregates not maintained: %+v, %v", cs, err)
		}

		evs, err := log.ReadFrom(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if !derivedTable(ev) {
				continue
			}
			// The one thing an aggregation schema does log is its own
			// creation, at Setup: a schema is not a table.
			if ev.Kind != warehouse.EvCreateSchema || ev.LSN > setup {
				t.Errorf("binlog holds %s %s.%s at LSN %d", ev.Kind, ev.Schema, ev.Table, ev.LSN)
			}
		}

		// The WAL file is the binlog, event for event.
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		recovered := warehouse.Open("recovered")
		last, err := warehouse.ReplayLog(recovered, walPath)
		if err != nil {
			t.Fatal(err)
		}
		if last != log.Last() {
			t.Fatalf("WAL ends at LSN %d, binlog at %d", last, log.Last())
		}
		walEvs, err := recovered.Binlog().ReadFrom(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(walEvs) != len(evs) {
			t.Fatalf("WAL holds %d events, binlog %d", len(walEvs), len(evs))
		}
		for i, ev := range walEvs {
			if ev.Kind != evs[i].Kind || ev.Schema != evs[i].Schema || ev.Table != evs[i].Table {
				t.Fatalf("WAL event %d is %s %s.%s, binlog has %s %s.%s", i+1,
					ev.Kind, ev.Schema, ev.Table, evs[i].Kind, evs[i].Schema, evs[i].Table)
			}
		}
	})
}

// restartCharts is the chart workload compared across a restart: every
// realm that ingests, grouped and ungrouped, at several periods.
var restartCharts = []struct {
	realm string
	req   aggregate.Request
}{
	{"Jobs", aggregate.Request{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: aggregate.Month}},
	{"Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Day}},
	{"Jobs", aggregate.Request{MetricID: jobs.MetricWallHours, GroupBy: jobs.DimWallTime, Period: aggregate.Quarter}},
	{"Jobs", aggregate.Request{MetricID: jobs.MetricAvgJobSize, Period: aggregate.Year,
		Filters: map[string]string{jobs.DimResource: "clusterB"}}},
	{"Cloud", aggregate.Request{MetricID: cloud.MetricCoreHours, GroupBy: cloud.DimUser, Period: aggregate.Month}},
	{"Storage", aggregate.Request{MetricID: storage.MetricFileCount, GroupBy: storage.DimUser, Period: aggregate.Day}},
}

func chartJSON(t *testing.T, in *Instance) []string {
	t.Helper()
	out := make([]string, len(restartCharts))
	for i, c := range restartCharts {
		series, err := in.Query(c.realm, c.req)
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
		out[i] = string(data)
	}
	return out
}

// TestRestartRebuildsAggregatesFromFacts: the WAL carries no aggregate,
// so a killed satellite gets its aggregation tables back the one way
// left — ReplayLog, then AggregateAll — and must serve every chart
// byte-identical to the instance that was killed, at the same binlog
// positions. The subtest is named for the default layout, as in
// TestDerivedTablesAreNeverLogged.
func TestRestartRebuildsAggregatesFromFacts(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		cfg := multiRealmSatCfg()
		before, err := NewSatellite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(t.TempDir(), "binlog.wal")
		wal, err := warehouse.OpenLogWriterOpts(before.DB, walPath, before.DB.Binlog().Last(), warehouse.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Several batches per resource, so most aggregation rows are
		// reached through incremental upserts, not first inserts.
		for i, res := range []string{"clusterA", "clusterB", "clusterC", "clusterA", "clusterB"} {
			ingestJobs(t, before, res, 30+7*i, time.Duration(30+45*i)*time.Minute, int64(1+1000*i))
		}
		t0 := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
		for i, vm := range []string{"vm1", "vm2", "vm3"} {
			at := t0.Add(time.Duration(i) * 30 * time.Hour)
			if _, err := before.Pipeline.IngestCloudEvents(cloudBatch(vm, at), at.Add(48*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 3; i++ {
			at := t0.Add(time.Duration(i/2) * 24 * time.Hour) // the second batch revises the first day's facts
			if _, err := before.Pipeline.IngestStorageSnapshots(storageBatch(at, 100+i)); err != nil {
				t.Fatal(err)
			}
		}
		want := chartJSON(t, before.Instance)
		head := before.DB.Binlog().Last()
		// The kill: nothing of the old process survives but the WAL.
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}

		after, err := NewSatellite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last, err := warehouse.ReplayLog(after.DB, walPath)
		if err != nil {
			t.Fatal(err)
		}
		if last != head || after.DB.Binlog().Last() != head {
			t.Fatalf("replayed through LSN %d, binlog at %d; the killed instance was at %d",
				last, after.DB.Binlog().Last(), head)
		}
		if err := after.AggregateAll(); err != nil {
			t.Fatal(err)
		}
		if after.DB.Binlog().Last() != head {
			t.Errorf("re-aggregation moved the binlog from %d to %d", head, after.DB.Binlog().Last())
		}
		for i, got := range chartJSON(t, after.Instance) {
			if got != want[i] {
				t.Errorf("chart %d (%s) differs after restart:\nwant %s\ngot  %s", i, restartCharts[i].realm, want[i], got)
			}
		}
	})
}
