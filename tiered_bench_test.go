// Tiered-storage benchmarks (EXP-B13): the memory/latency trade of
// spilling cold columnar segments to the mmap-backed disk format. A
// 100k-fact fixture is ingested, fully rebuilt, and chart-queried
// twice — once on a disk-tiered instance whose resident budget is far
// below the data's in-memory footprint, once on the all-RAM memstore
// reference — proving the heap footprint is bounded by the budget
// while every chart result stays bit-identical. The flag -emit-bench
// (make bench) writes the measurements to BENCH_7.json.
package xdmodfed

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/rest"
)

// tieredBenchFacts sizes the fixture: large enough that the fact
// table seals dozens of segments and the day-period aggregation table
// itself spills past the hot tail.
const tieredBenchFacts = 100_000

// tieredBudget is the disk instance's max_resident_bytes: 8 MiB,
// far below the fixture's all-RAM heap footprint.
const tieredBudget = 8 << 20

// dayChartReq hits the day-period aggregation table (≈ 365 days × 32
// users of rows), which is past the hot-tail threshold and therefore
// served from sealed segments on the disk instance.
var dayChartReq = aggregate.Request{
	MetricID: jobs.MetricCPUHours,
	GroupBy:  jobs.DimUser,
	Period:   aggregate.Day,
}

// vmHWMKB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func vmHWMKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// heapLive returns HeapAlloc after two full GCs (the first clears the
// weak chunk caches, the second frees the views they referenced): the
// live columnar data plus whatever segment views are materialized.
// Callers must keep the instance under measurement reachable past the
// call (runtime.KeepAlive) or the GC will deflate the reading.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ingestBatched feeds the fixture in 10k-record commits so tables
// seal as they grow, the way a live satellite's tables would.
func ingestBatched(t testing.TB, in *core.Instance) {
	t.Helper()
	all := benchRecords(tieredBenchFacts)
	for lo := 0; lo < len(all); lo += 10_000 {
		hi := min(lo+10_000, len(all))
		st, err := in.Pipeline.IngestJobRecords(all[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingested != hi-lo {
			t.Fatalf("batch [%d:%d): ingested %d", lo, hi, st.Ingested)
		}
	}
}

// chartP50 samples the REST chart path (the handler behind
// /api/chart) n times, bumping the warehouse epoch each time so the
// query-result cache never hits, and returns the median latency.
// When flush is non-nil it runs (untimed) before every sample; the
// disk instance flushes by snapshotting the whole DB to io.Discard,
// which materializes every fact segment and thereby evicts the chart
// tables' views under the small budget — each timed query then pays
// the cold-segment materialization.
func chartP50(t testing.TB, srv *rest.Server, n int, flush func()) time.Duration {
	t.Helper()
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if flush != nil {
			flush()
		}
		invalidateCharts(srv.Instance.DB)
		start := time.Now()
		if _, _, err := srv.QuerySeries(context.Background(), "Jobs", dayChartReq, "", 0); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	return p50(lat)
}

// TestEmitTieredBenchJSON measures the tiered segment store on the
// 100k-fact fixture and writes BENCH_7.json. Gated behind -emit-bench;
// `make bench` passes the flag. Acceptance: every chart query on the
// disk-tiered instance is bit-identical to the memstore reference,
// and its post-rebuild heap footprint is a small fraction of the
// all-RAM footprint (the resident budget sits far below it).
func TestEmitTieredBenchJSON(t *testing.T) {
	if !*emitBench {
		t.Skip("pass -emit-bench to run the tiered-storage benchmarks and write BENCH_7.json")
	}
	base := heapLive()

	// --- Disk-tiered phase (first, so its VmHWM reading is not
	// inflated by the all-RAM run). ---
	// The resident gauge is process-wide and memory backends feed it
	// too, so the disk backend's share is its change across this phase.
	residentGauge := obs.Default.Gauge("xdmodfed_store_resident_bytes", "")
	residentBase := residentGauge.Value()
	diskDir := t.TempDir()
	disk := tieredInstance(t, "tiered", config.StorageConfig{
		Backend:          "disk",
		DataDir:          diskDir,
		HotTailRows:      4096,
		MaxResidentBytes: tieredBudget,
	})
	ingestBatched(t, disk)
	if err := disk.AggregateAll(); err != nil { // full rebuild over sealed segments
		t.Fatal(err)
	}
	// The in-memory binlog retains every ingest event (~200 MB of boxed
	// values for 100k facts) on both backends alike; a deployment trims
	// it once replication has drained. Trim it on both instances so the
	// footprint comparison measures the storage tier, not the log.
	disk.DB.Binlog().Trim(disk.DB.Binlog().Last())
	diskJSON := make([][]byte, len(tieredQueries))
	for i, req := range tieredQueries {
		diskJSON[i] = seriesJSON(t, disk, req)
	}
	diskSrv := rest.NewSatelliteServer(&core.Satellite{Instance: disk})
	coldP50 := chartP50(t, diskSrv, 25, func() {
		if err := disk.DB.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	hotP50 := chartP50(t, diskSrv, 50, nil)
	diskHeap := heapLive() - base
	diskHWM := vmHWMKB()
	segments, segmentBytes := segmentFiles(t, diskDir)
	if segments == 0 {
		t.Fatal("disk backend sealed no segments")
	}
	resident := residentGauge.Value() - residentBase
	if err := disk.DB.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(diskSrv)
	disk = nil
	diskSrv = nil

	// --- All-RAM reference phase. ---
	mem := tieredInstance(t, "ram", config.StorageConfig{})
	ingestBatched(t, mem)
	if err := mem.AggregateAll(); err != nil {
		t.Fatal(err)
	}
	mem.DB.Binlog().Trim(mem.DB.Binlog().Last())
	identical := true
	for i, req := range tieredQueries {
		if got := seriesJSON(t, mem, req); string(got) != string(diskJSON[i]) {
			identical = false
			t.Errorf("query %s/%s/%d: disk-tiered result differs from memstore",
				req.MetricID, req.GroupBy, req.Period)
		}
	}
	memSrv := rest.NewSatelliteServer(&core.Satellite{Instance: mem})
	ramP50 := chartP50(t, memSrv, 50, nil)
	memHeap := heapLive() - base
	runtime.KeepAlive(memSrv)

	out := map[string]any{
		"go":                           runtime.Version(),
		"cpus":                         runtime.NumCPU(),
		"gomaxprocs":                   runtime.GOMAXPROCS(0),
		"facts":                        tieredBenchFacts,
		"max_resident_bytes":           tieredBudget,
		"disk_segments":                segments,
		"disk_segment_bytes":           segmentBytes,
		"disk_resident_bytes":          resident,
		"disk_heap_inuse_bytes":        diskHeap,
		"mem_heap_inuse_bytes":         memHeap,
		"disk_vm_hwm_kb":               diskHWM,
		"final_vm_hwm_kb":              vmHWMKB(),
		"bit_identical":                identical,
		"cold_segment_chart_p50_ns":    coldP50.Nanoseconds(),
		"hot_view_chart_p50_ns":        hotP50.Nanoseconds(),
		"all_ram_chart_p50_ns":         ramP50.Nanoseconds(),
		"cold_over_ram_chart_latency":  float64(coldP50) / float64(ramP50),
		"disk_over_mem_heap_footprint": float64(diskHeap) / float64(memHeap),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_7.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("disk: %d segments / %d file bytes, heap %d B vs all-RAM %d B (%.2fx); chart p50 cold %v / hot %v / all-RAM %v",
		segments, segmentBytes, diskHeap, memHeap,
		float64(diskHeap)/float64(memHeap), coldP50, hotP50, ramP50)

	if !identical {
		t.Error("disk-tiered chart results are not bit-identical to memstore")
	}
	if uint64(tieredBudget) >= memHeap {
		t.Errorf("resident budget %d is not below the all-RAM heap footprint %d; the bound proves nothing",
			tieredBudget, memHeap)
	}
	if diskHeap >= memHeap {
		t.Errorf("disk-tiered heap %d B is not below the all-RAM heap %d B", diskHeap, memHeap)
	}
}
