// Package bench is the repository's pipeline benchmark: it builds a
// live in-process federation from the public constructors, drives
// named workloads from accounting line to hub chart, checks every
// result against a control hub, and reports end-to-end metrics from a
// measured run and per-layer metrics from a traced run. README.md
// explains every workload and metric; BENCHMARK.json at the repository
// root is the contract a driver reads.
package bench

import (
	"math"
	"sort"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run prints as its last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Def names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd lists the metrics of a measured (--trace 0) run. Every
// workload reports every one; README.md says what each means on each
// workload. BENCHMARK.json repeats the list and the self-test keeps
// the two equal.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.05},
	{"live_heap_bytes_per_fact", "B", "lower", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

// PerLayer lists the metrics of a traced (--trace 1) run, by layer
// (this repository's packages). A layer a workload does not exercise
// reports 0.
var PerLayer = []Def{
	{"shredder.parse_ns_per_fact", "ns", "lower", 0},
	{"shredder.parse_allocs_per_fact", "count", "lower", 0},
	{"shredder.rejected_lines", "count", "lower", 0},

	{"ingest.jobs_ns_per_fact", "ns", "lower", 0},
	{"ingest.jobs_allocs_per_fact", "count", "lower", 0},
	{"ingest.cloud_ns_per_event_first", "ns", "lower", 0},
	{"ingest.cloud_ns_per_event_mid", "ns", "lower", 0},
	{"ingest.cloud_ns_per_event_last", "ns", "lower", 0},
	{"ingest.storage_ns_per_snapshot_first", "ns", "lower", 0},
	{"ingest.storage_ns_per_snapshot_mid", "ns", "lower", 0},
	{"ingest.storage_ns_per_snapshot_last", "ns", "lower", 0},
	{"ingest.rejected_records", "count", "lower", 0},

	{"warehouse.insert_ns_per_row", "ns", "lower", 0},
	{"warehouse.insert_allocs_per_row", "count", "lower", 0},
	{"warehouse.events_per_fact", "count", "lower", 0},
	{"warehouse.wal_bytes_per_fact", "B", "lower", 0},
	{"warehouse.binlog_read_ns_per_event", "ns", "lower", 0},

	{"replicate.rewrite_ns_per_event", "ns", "lower", 0},
	{"replicate.wire_bytes_per_fact", "B", "lower", 0},
	{"replicate.frames", "count", "lower", 0},
	{"replicate.lag_p50_ms", "ms", "lower", 0},
	{"replicate.lag_p95_ms", "ms", "lower", 0},
	{"replicate.pushdown_fold_ns_per_fact", "ns", "lower", 0},
	{"replicate.delta_rows_per_flush", "count", "lower", 0},
	{"replicate.reconnects", "count", "lower", 0},

	{"core.apply_ns_per_event", "ns", "lower", 0},
	{"core.apply_allocs_per_event", "count", "lower", 0},
	{"core.apply_delta_ns_per_bin", "ns", "lower", 0},
	{"core.ensure_aggregated_ms_p50", "ms", "lower", 0},
	{"core.dirty_rebuilds", "count", "lower", 0},

	{"aggregate.fold_ns_per_fact", "ns", "lower", 0},
	{"aggregate.fold_allocs_per_fact", "count", "lower", 0},
	{"aggregate.rebuild_ns_per_fact", "ns", "lower", 0},
	{"aggregate.rebuild_allocs_per_fact", "count", "lower", 0},
	{"aggregate.delta_fold_ns_per_fact", "ns", "lower", 0},
	{"aggregate.query_ns_p50", "ns", "lower", 0},
	{"aggregate.rows_scanned_per_query", "count", "lower", 0},

	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.hit_ns_p50", "ns", "lower", 0},
	{"qcache.miss_ns_p50", "ns", "lower", 0},
	{"qcache.evictions", "count", "lower", 0},

	{"rest.http_overhead_us_p50", "us", "lower", 0},
	{"rest.response_bytes_p50", "B", "lower", 0},
	{"rest.chart_cold_p50_ms", "ms", "lower", 0},
	{"rest.chart_hot_p50_ms", "ms", "lower", 0},
	{"rest.chart_hot_p95_ms", "ms", "lower", 0},

	{"chart.svg_ns_per_render", "ns", "lower", 0},
	{"chart.json_ns_per_render", "ns", "lower", 0},

	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.latency_p95_ms", "ms", "lower", 0},
	{"bench.cloud_freshness_p50_ms", "ms", "lower", 0},
	{"bench.generator_late_p95_ms", "ms", "lower", 0},
	{"bench.stage_residual_ms_p50", "ms", "lower", 0},
	{"proc.gc_cpu_fraction", "ratio", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
}

// report builds the metrics map for defs from vals; a name vals lacks
// reports 0 (a layer the workload does not exercise).
func report(defs []Def, vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
