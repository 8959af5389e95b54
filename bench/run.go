package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed section; sizes scale with it
	Trace    bool    // false: measured run, end-to-end metrics; true: traced run, per-layer metrics
	OutDir   string  // trace files and the run's temporary directory go here
	Rounds   int     // 0 = measuredRounds for a measured run, 1 for a traced one
	Sizes    *Sizes  // nil = SizesFor a round's share of Seconds; the self-test passes small ones
}

// Record is one run as benchcmp reads it: the result line plus where,
// how and on what it was made.
type Record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Rounds   int     `json:"rounds"`
	Host     Host    `json:"host"`
	Sizes    Sizes   `json:"sizes"` // of one round
	Result   Result  `json:"result"`
}

// measuredRounds is how many independent rounds a measured run makes.
// Each round sets a federation up afresh, runs a third of the timed
// section on it and checks it against its control; the run reports the
// median over the rounds. Round-to-round scatter on the reference box
// is several times the scatter of those medians.
const measuredRounds = 3

// Run performs one run of one workload: rounds of set-up, live timed
// section and control check, and for a traced run the stepped replay
// on the last round's inputs.
func Run(o Options) (Record, error) {
	rec := Record{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Host: hostInfo()}
	if err := checkHost(rec.Host); err != nil {
		return rec, err
	}
	w, err := findWorkload(o.Workload)
	if err != nil {
		return rec, err
	}
	rec.Rounds = measuredRounds
	if o.Trace {
		rec.Rounds = 1
	}
	if o.Rounds > 0 {
		rec.Rounds = o.Rounds
	}
	budget := time.Duration(o.Seconds * float64(time.Second) / float64(rec.Rounds))
	if o.Trace {
		budget /= 2 // the stepped replay gets the other half
	}
	sz := SizesFor(budget.Seconds())
	if o.Sizes != nil {
		sz = *o.Sizes
	}
	rec.Sizes = sz
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return rec, err
	}
	dir, err := os.MkdirTemp(o.OutDir, "run-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(dir)

	var e *env
	var live *liveStats
	var latencyMS []float64 // of every round
	rounds := map[string][]float64{}
	for r := 0; r < rec.Rounds; r++ {
		if e != nil {
			e.Close()
		}
		// Set-up: input generation, federation start, preload. Everything
		// before the timed section is here, so work moved into it shows.
		start := time.Now()
		sub := filepath.Join(dir, fmt.Sprintf("round-%d", r))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return rec, err
		}
		if e, err = w.setup(sub, o.Seed, sz); err != nil {
			return rec, err
		}
		e.w, e.seed = w, o.Seed
		if err := e.start(); err != nil {
			e.Close()
			return rec, err
		}
		setup := time.Since(start).Seconds()
		runtime.GC()

		if live, err = w.live(e, budget); err != nil {
			e.Close()
			return rec, err
		}
		checked, mismatched, err := verify(e.fed)
		if err != nil {
			e.Close()
			return rec, err
		}
		rec.Result.Attempted += live.attempted + checked
		rec.Result.Failed += live.failed + mismatched
		for name, v := range map[string]float64{
			"setup_s":                  setup,
			"ops_per_s":                ratio(float64(live.ops), live.wall.Seconds()),
			"cpu_us_per_op":            ratio(float64(live.cpu.Microseconds()), float64(live.ops)),
			"wire_bytes_per_op":        ratio(float64(live.wire), float64(live.ops)),
			"live_heap_bytes_per_fact": ratio(float64(live.heap), float64(live.facts)),
		} {
			rounds[name] = append(rounds[name], v)
		}
		latencyMS = append(latencyMS, live.latencyMS...)
	}
	defer e.Close()
	// Rates are medians over the rounds; the latency median is taken
	// over the samples of all rounds (a backfill round has four).
	vals := map[string]float64{"latency_p50_ms": median(latencyMS)}
	for name, vs := range rounds {
		vals[name] = median(vs)
	}
	defs := EndToEnd
	if o.Trace {
		tr := newTracer()
		if err := w.step(e, budget, tr); err != nil {
			return rec, err
		}
		if err := tr.write(o.OutDir, rec.Host, o.Workload, o.Seed); err != nil {
			return rec, err
		}
		vals = layerMetrics(live, tr, vals)
		defs = PerLayer
		rec.Result.Attempted += len(tr.tracedNS) + len(tr.untracedNS)
	}
	rec.Result.Correct = rec.Result.Failed == 0
	rec.Result.Metrics = report(defs, vals)
	if rec.Result.Attempted == 0 {
		return rec, fmt.Errorf("bench: workload %s attempted nothing in %v", o.Workload, budget)
	}
	return rec, nil
}

// layerMetrics derives the per-layer metrics from the live section's
// outside counters and the stepped replay's spans. e2e holds the live
// section's end-to-end values, for the residual.
func layerMetrics(live *liveStats, tr *tracer, e2e map[string]float64) map[string]float64 {
	st := tr.stat
	jobsShred, jobsCommit := st("shred.jobs"), st("ingest.jobs")
	cloudCommit, storageCommit := st("ingest.cloud"), st("ingest.storage")
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	_, rss := rusage()
	facts := float64(live.ops)
	if len(live.hotMS) > 0 {
		facts = 0 // chart-read ingests nothing in its timed section
	}
	hits, misses := float64(live.cache.Hits), float64(live.cache.Misses)
	stepP50 := median(tr.untracedNS) / 1e6
	// The HTTP floor: a live GET against the same work done by direct
	// calls — a rebuild of what is dirty, a miss and a render on the
	// write workloads' visibility queries, a hit and a render on
	// chart-read's hot passes.
	httpP50, directP50 := median(live.chartMS), median(st("rebuild").durs())+median(st("query.scan").durs())
	if len(live.hotMS) > 0 {
		httpP50, directP50 = median(live.hotMS), median(st("qcache.hit").durs())
	}
	directP50 = (directP50 + median(st("render.json").durs())) / 1e6
	return map[string]float64{
		"shredder.parse_ns_per_fact":     jobsShred.nsPer(),
		"shredder.parse_allocs_per_fact": jobsShred.allocsPer(),
		"shredder.rejected_lines":        float64(tr.counts["shred.rejected"]),

		"ingest.jobs_ns_per_fact":              jobsCommit.nsPer(),
		"ingest.jobs_allocs_per_fact":          jobsCommit.allocsPer(),
		"ingest.cloud_ns_per_event_first":      cloudCommit.nsPerAt(0),
		"ingest.cloud_ns_per_event_mid":        cloudCommit.nsPerAt(0.5),
		"ingest.cloud_ns_per_event_last":       cloudCommit.nsPerAt(1),
		"ingest.storage_ns_per_snapshot_first": storageCommit.nsPerAt(0),
		"ingest.storage_ns_per_snapshot_mid":   storageCommit.nsPerAt(0.5),
		"ingest.storage_ns_per_snapshot_last":  storageCommit.nsPerAt(1),
		"ingest.rejected_records":              float64(tr.counts["ingest.rejected"]),

		"warehouse.insert_ns_per_row":        st("warehouse.insert").nsPer(),
		"warehouse.insert_allocs_per_row":    st("warehouse.insert").allocsPer(),
		"warehouse.events_per_fact":          ratio(float64(live.binlogEvents), facts),
		"warehouse.wal_bytes_per_fact":       ratio(float64(live.walBytes), facts),
		"warehouse.binlog_read_ns_per_event": st("binlog.read").nsPer(),

		"replicate.rewrite_ns_per_event":      st("wire.rewrite").nsPer(),
		"replicate.wire_bytes_per_fact":       ratio(float64(live.wire), facts),
		"replicate.frames":                    float64(live.frames),
		"replicate.lag_p50_ms":                median(live.lagMS),
		"replicate.lag_p95_ms":                percentile(live.lagMS, 95),
		"replicate.pushdown_fold_ns_per_fact": st("wire.pushdown_fold").nsPer(),
		"replicate.delta_rows_per_flush":      ratio(float64(live.deltaRows), float64(live.deltas)),
		"replicate.reconnects":                float64(live.reconnects),

		"core.apply_ns_per_event":       st("hub.apply").nsPer(),
		"core.apply_allocs_per_event":   st("hub.apply").allocsPer(),
		"core.apply_delta_ns_per_bin":   st("hub.apply_delta").nsPer(),
		"core.ensure_aggregated_ms_p50": median(st("rebuild").durs()) / 1e6,
		"core.dirty_rebuilds":           float64(live.dirtyRebuilds),

		"aggregate.fold_ns_per_fact":        st("fold").nsPer(),
		"aggregate.fold_allocs_per_fact":    st("fold").allocsPer(),
		"aggregate.rebuild_ns_per_fact":     st("rebuild.engine").nsPer(),
		"aggregate.rebuild_allocs_per_fact": st("rebuild.engine").allocsPer(),
		"aggregate.delta_fold_ns_per_fact":  st("delta_fold").nsPer(),
		"aggregate.query_ns_p50":            median(st("query.engine").durs()),
		"aggregate.rows_scanned_per_query":  ratio(float64(tr.counts["rows_scanned"]), float64(len(st("query.engine").calls))),

		"qcache.hit_ratio":   ratio(hits, hits+misses),
		"qcache.hit_ns_p50":  median(st("qcache.hit").durs()),
		"qcache.miss_ns_p50": median(st("query.scan").durs()),
		"qcache.evictions":   float64(live.cache.Evictions),

		"rest.http_overhead_us_p50": (httpP50 - directP50) * 1e3,
		"rest.response_bytes_p50":   median(live.responseBytes),
		"rest.chart_cold_p50_ms":    median(live.chartMS),
		"rest.chart_hot_p50_ms":     median(live.hotMS),
		"rest.chart_hot_p95_ms":     percentile(live.hotMS, 95),

		"chart.svg_ns_per_render":  st("render.svg").nsPer(),
		"chart.json_ns_per_render": st("render.json").nsPer(),

		"bench.trace_overhead_ratio":   ratio(median(tr.tracedNS), median(tr.untracedNS)),
		"bench.latency_p95_ms":         percentile(live.latencyMS, 95),
		"bench.cloud_freshness_p50_ms": median(live.cloudMS),
		"bench.generator_late_p95_ms":  percentile(live.lateMS, 95),
		"bench.stage_residual_ms_p50":  e2e["latency_p50_ms"] - stepP50,
		"proc.gc_cpu_fraction":         mem.GCCPUFraction,
		"proc.peak_rss_mb":             rss,
	}
}
