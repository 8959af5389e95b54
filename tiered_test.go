// Tiered-storage equivalence and recovery tests. The segment-store
// backend is a pure storage decision: a disk-backed instance whose
// cold segments live in the mmap-backed on-disk format must produce
// bit-identical chart results to the all-RAM memstore reference, both
// through incremental aggregation and after a full rebuild, and a
// crash in the middle of sealing a segment must be survivable — the
// torn file is detected via its CRC footer, discarded, and the
// warehouse re-sealed from the WAL.
package xdmodfed

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/warehouse/store"
)

// tieredInstance builds a one-resource instance on the given segment
// storage configuration.
func tieredInstance(t testing.TB, name string, storage config.StorageConfig) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(config.InstanceConfig{
		Name: name, Version: core.Version,
		Resources: []config.ResourceConfig{{Name: "cluster", Type: "hpc", SUFactor: 1.0}},
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
		Storage: storage,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// hourlyJobs returns n one-hour, 8-core jobs on the instance's
// resource, one ending every hour of 2017 (wrapping after a year),
// spread over 32 users.
func hourlyJobs(n int) []shredder.JobRecord {
	recs := make([]shredder.JobRecord, 0, n)
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		end := base.Add(time.Duration(i%8760) * time.Hour)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%32), Account: "a",
			Resource: "cluster", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-2 * time.Hour), Start: end.Add(-time.Hour), End: end,
		})
	}
	return recs
}

// tieredQueries is the chart workload the equivalence tests compare:
// every aggregate kind (sum, count, average, max) across user, bucket
// and resource dimensions at several periods.
var tieredQueries = []aggregate.Request{
	{MetricID: jobs.MetricCPUHours, GroupBy: jobs.DimUser, Period: aggregate.Month},
	{MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimResource, Period: aggregate.Quarter},
	{MetricID: jobs.MetricWallHours, GroupBy: jobs.DimWallTime, Period: aggregate.Day},
	{MetricID: jobs.MetricAvgJobSize, GroupBy: jobs.DimQueue, Period: aggregate.Year},
	{MetricID: jobs.MetricMaxJobSize, Period: aggregate.Month},
}

// seriesJSON runs one chart query and returns its byte-exact JSON
// encoding, the same encoding the REST layer ships to dashboards.
func seriesJSON(t testing.TB, in *core.Instance, req aggregate.Request) []byte {
	t.Helper()
	series, err := in.Query("Jobs", req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(series)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// segmentFiles counts the sealed segment files a disk backend keeps in
// dir, and their bytes. Dropping a segment unlinks its file.
func segmentFiles(t testing.TB, dir string) (n int, bytes int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		bytes += fi.Size()
	}
	return len(segs), bytes
}

// TestTieredMatchesMemstore is the equivalence property: the same
// facts ingested into an all-RAM instance and a disk-backed instance
// (hot tail small enough to seal many segments, resident budget small
// enough to force eviction and re-materialization) must answer every
// chart query bit-identically — after incremental aggregation and
// again after a full rebuild.
func TestTieredMatchesMemstore(t *testing.T) {
	const facts = 6000
	recs := hourlyJobs(facts)

	mem := tieredInstance(t, "ram", config.StorageConfig{})
	diskDir := t.TempDir()
	disk := tieredInstance(t, "tiered", config.StorageConfig{
		Backend:          "disk",
		DataDir:          diskDir,
		HotTailRows:      512,
		MaxResidentBytes: 1 << 20, // 1 MiB: far below the fixture, forces eviction
	})
	defer disk.DB.Close()

	for _, in := range []*core.Instance{mem, disk} {
		st, err := in.Pipeline.IngestJobRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != facts {
			t.Fatalf("%s ingested %d of %d", in.Config.Name, st.Ingested, facts)
		}
	}
	if n, bytes := segmentFiles(t, diskDir); n == 0 {
		t.Fatal("disk backend sealed no segments; the tiered path was not exercised")
	} else {
		t.Logf("disk backend: %d segments, %d bytes on disk", n, bytes)
	}

	for _, req := range tieredQueries {
		want := seriesJSON(t, mem, req)
		got := seriesJSON(t, disk, req)
		if string(want) != string(got) {
			t.Errorf("query %s/%s/%d: tiered result differs from memstore\nmem:  %s\ndisk: %s",
				req.MetricID, req.GroupBy, req.Period, want, got)
		}
	}

	// Full rebuild from raw facts (the paper's re-aggregation path)
	// scans every sealed segment; results must still match.
	if err := mem.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	if err := disk.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	for _, req := range tieredQueries {
		want := seriesJSON(t, mem, req)
		got := seriesJSON(t, disk, req)
		if string(want) != string(got) {
			t.Errorf("after rebuild, query %s/%s/%d: tiered result differs from memstore",
				req.MetricID, req.GroupBy, req.Period)
		}
	}
}

// TestTieredCrashMidSealRecovery simulates a process crash in the
// middle of sealing a segment: a half-written segment file is left in
// the data directory. Segments are not durability — the WAL is — so
// recovery must (a) detect the torn file via its CRC footer, (b)
// discard every leftover segment, and (c) rebuild the warehouse from
// the WAL, re-sealing as it replays, with chart results identical to
// the pre-crash instance.
func TestTieredCrashMidSealRecovery(t *testing.T) {
	const facts = 2000
	dataDir := t.TempDir()
	walPath := filepath.Join(t.TempDir(), "binlog.wal")
	storage := config.StorageConfig{Backend: "disk", DataDir: dataDir, HotTailRows: 256}

	before := tieredInstance(t, "crashy", storage)
	wal, err := warehouse.OpenLogWriterOpts(before.DB, walPath, 0, warehouse.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := before.Pipeline.IngestJobRecords(hourlyJobs(facts)); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	want := seriesJSON(t, before, tieredQueries[0])

	segs, err := filepath.Glob(filepath.Join(dataDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segments on disk (err=%v)", err)
	}
	// Tear one segment in half, as a crash mid-write would.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := store.VerifyFile(segs[0]); err == nil {
		t.Fatal("torn segment passed CRC verification")
	} else {
		t.Logf("torn segment rejected: %v", err)
	}

	// "Restart": a fresh instance over the same data directory. OpenDisk
	// discards every leftover file — the torn one and the intact-but-
	// stale ones — because the WAL, not the segment files, is the
	// durable record.
	after := tieredInstance(t, "crashy", storage)
	defer after.DB.Close()
	if left, _ := filepath.Glob(filepath.Join(dataDir, "*.seg")); len(left) != 0 {
		t.Fatalf("leftover segment files survived recovery: %v", left)
	}
	n, err := warehouse.ReplayLog(after.DB, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("WAL replay recovered no events")
	}
	if err := after.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	if n, _ := segmentFiles(t, dataDir); n == 0 {
		t.Fatal("replay did not re-seal any segments")
	}
	if got := seriesJSON(t, after, tieredQueries[0]); string(got) != string(want) {
		t.Errorf("post-recovery chart differs from pre-crash:\nwant %s\ngot  %s", want, got)
	}
}
