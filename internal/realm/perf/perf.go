// Package perf implements the SUPReMM performance realm: job-level
// performance data collected from system hardware counters (paper
// §I-D, §I-E). The paper calls a job's raw metric timeseries and job
// script "storage-intensive and quite detailed" and federates only
// per-job summaries (§II-C5), so the realm declares just the summary:
// one row per job holding the average and peak of nine metrics. It is
// the realm's fact table and so the one table that federates
// (realm.Info.Federated).
package perf

import (
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations.
const (
	SchemaName   = "modw_supremm"
	SummaryTable = "job_summary"
)

// MetricNames are the nine per-job metrics the paper enumerates
// examples of (CPU user, memory bandwidth, ...).
var MetricNames = []string{
	"cpu_user",
	"cpu_idle",
	"memory_used",
	"memory_bandwidth",
	"io_read_rate",
	"io_write_rate",
	"net_rx_rate",
	"net_tx_rate",
	"flops",
}

// SummaryDef returns the summary table definition.
func SummaryDef() warehouse.TableDef {
	cols := []warehouse.Column{
		{Name: "job_id", Type: warehouse.TypeInt},
		{Name: "resource", Type: warehouse.TypeString},
		{Name: "start_time", Type: warehouse.TypeTime},
		{Name: "n_samples", Type: warehouse.TypeInt},
		{Name: "month_key", Type: warehouse.TypeInt},
	}
	for _, m := range MetricNames {
		cols = append(cols,
			warehouse.Column{Name: "avg_" + m, Type: warehouse.TypeFloat},
			warehouse.Column{Name: "peak_" + m, Type: warehouse.TypeFloat},
		)
	}
	return warehouse.TableDef{
		Name:       SummaryTable,
		Columns:    cols,
		PrimaryKey: []string{"resource", "job_id"},
	}
}

// RealmInfo describes the SUPReMM realm over its one table, the
// summary.
func RealmInfo() realm.Info {
	info := realm.Info{
		Name:       "SUPReMM",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{SummaryDef()},
		FactTable:  SummaryTable,
		TimeColumn: "start_time",
		Metrics: []realm.Metric{
			{ID: "job_count", Name: "Number of Jobs Profiled", Unit: "jobs", Func: warehouse.AggCount},
		},
		Dimensions: []realm.Dimension{
			{ID: "resource", Name: "Resource", Column: "resource"},
		},
	}
	for _, m := range MetricNames {
		info.Metrics = append(info.Metrics,
			realm.Metric{ID: "avg_" + m, Name: "Avg " + m, Unit: "value", Func: warehouse.AggAvg, Column: "avg_" + m},
			realm.Metric{ID: "peak_" + m, Name: "Peak " + m, Unit: "value", Func: warehouse.AggMax, Column: "peak_" + m},
		)
	}
	return info
}
