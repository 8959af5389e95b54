// Package perf implements the SUPReMM performance realm: job-level
// performance data collected from system hardware counters (paper
// §I-D, §I-E). Each job carries timeseries of nine metrics over its
// lifetime plus its job script — data the paper calls
// "storage-intensive and quite detailed" (§II-C5). Because replicating
// that detail "runs counter to the goal of federation", the per-job
// summary is the realm's fact table and so the one table that
// federates (realm.Info.Federated); the raw timeseries and scripts stay
// on the satellite.
package perf

import (
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations. TimeseriesTable and ScriptTable hold the
// detailed satellite-only data; SummaryTable is the federated form.
const (
	SchemaName      = "modw_supremm"
	TimeseriesTable = "job_timeseries"
	ScriptTable     = "job_scripts"
	SummaryTable    = "job_summary"
)

// MetricNames are the nine per-job timeseries metrics the paper
// enumerates examples of (CPU user, memory bandwidth, ...).
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

// TimeseriesDef returns the raw timeseries table definition.
func TimeseriesDef() warehouse.TableDef {
	cols := []warehouse.Column{
		{Name: "job_id", Type: warehouse.TypeInt},
		{Name: "resource", Type: warehouse.TypeString},
		{Name: "offset_sec", Type: warehouse.TypeFloat},
	}
	for _, m := range MetricNames {
		cols = append(cols, warehouse.Column{Name: m, Type: warehouse.TypeFloat})
	}
	return warehouse.TableDef{
		Name:    TimeseriesTable,
		Columns: cols,
		Indexes: [][]string{{"resource", "job_id"}},
	}
}

// ScriptDef returns the job-script table definition.
func ScriptDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: ScriptTable,
		Columns: []warehouse.Column{
			{Name: "job_id", Type: warehouse.TypeInt},
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "script", Type: warehouse.TypeString},
		},
		PrimaryKey: []string{"resource", "job_id"},
	}
}

// SummaryDef returns the federated summary table definition.
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

// RealmInfo describes the SUPReMM realm over the summary table, its
// fact table and so the one table that federates.
func RealmInfo() realm.Info {
	info := realm.Info{
		Name:       "SUPReMM",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{TimeseriesDef(), ScriptDef(), SummaryDef()},
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
