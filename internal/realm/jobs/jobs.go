// Package jobs implements the HPC Jobs realm, XDMoD's original and
// primary realm: metrics "gleaned largely from job accounting data"
// (paper §I-D) — job counts, CPU hours, wall times, wait times, job
// sizes, and XD-SU charges — with dimensions for resource, user, PI,
// and queue. This is also the only realm replicated to the federation
// hub in the paper's initial federation release (§II-C1).
package jobs

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/warehouse/store"
)

// Warehouse locations for the realm.
const (
	SchemaName = "modw" // XDMoD's aggregate warehouse schema name
	FactTable  = "jobfact"
)

// Fact-table column names.
const (
	ColJobID    = "job_id"
	ColResource = "resource"
	ColUser     = "username"
	ColPI       = "pi"
	ColQueue    = "queue"
	ColNodes    = "nodes"
	ColCores    = "cores"
	ColSubmit   = "submit_time"
	ColStart    = "start_time"
	ColEnd      = "end_time"
	ColWallSec  = "wall_seconds"
	ColWaitSec  = "wait_seconds"
	ColCPUHours = "cpu_hours"
	ColXDSU     = "xdsu_charged"
	ColExit     = "exit_state"
	ColDayKey   = "day_key"   // YYYYMMDD of end time
	ColMonthKey = "month_key" // YYYYMM of end time
)

// Def returns the jobfact table definition.
func Def() warehouse.TableDef {
	return warehouse.TableDef{
		Name: FactTable,
		Columns: []warehouse.Column{
			{Name: ColJobID, Type: warehouse.TypeInt},
			{Name: ColResource, Type: warehouse.TypeString},
			{Name: ColUser, Type: warehouse.TypeString},
			{Name: ColPI, Type: warehouse.TypeString},
			{Name: ColQueue, Type: warehouse.TypeString},
			{Name: ColNodes, Type: warehouse.TypeInt},
			{Name: ColCores, Type: warehouse.TypeInt},
			{Name: ColSubmit, Type: warehouse.TypeTime},
			{Name: ColStart, Type: warehouse.TypeTime},
			{Name: ColEnd, Type: warehouse.TypeTime},
			{Name: ColWallSec, Type: warehouse.TypeFloat},
			{Name: ColWaitSec, Type: warehouse.TypeFloat},
			{Name: ColCPUHours, Type: warehouse.TypeFloat},
			{Name: ColXDSU, Type: warehouse.TypeFloat},
			{Name: ColExit, Type: warehouse.TypeString, Nullable: true},
			{Name: ColDayKey, Type: warehouse.TypeInt},
			{Name: ColMonthKey, Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{ColResource, ColJobID},
	}
}

// Metric and dimension IDs.
const (
	MetricNumJobs      = "job_count"
	MetricCPUHours     = "total_cpu_hours"
	MetricWallHours    = "total_wall_hours"
	MetricXDSU         = "total_su_charged"
	MetricAvgWaitHours = "avg_waitduration_hours"
	MetricAvgJobSize   = "avg_job_size"
	MetricMaxJobSize   = "max_job_size"

	DimResource = "resource"
	DimUser     = "person"
	DimPI       = "pi"
	DimQueue    = "queue"
	DimWallTime = "job_wall_time"
	DimJobSize  = "job_size"
)

// RealmInfo describes the Jobs realm for registries and the REST API.
func RealmInfo() realm.Info {
	return realm.Info{
		Name:       "Jobs",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{Def()},
		FactTable:  FactTable,
		TimeColumn: ColEnd,
		Metrics: []realm.Metric{
			{ID: MetricNumJobs, Name: "Number of Jobs Ended", Unit: "jobs", Func: warehouse.AggCount},
			{ID: MetricCPUHours, Name: "CPU Hours: Total", Unit: "CPU Hour", Func: warehouse.AggSum, Column: ColCPUHours},
			{ID: MetricWallHours, Name: "Wall Hours: Total", Unit: "Hour", Func: warehouse.AggSum, Column: ColWallSec, Scale: 1.0 / 3600},
			{ID: MetricXDSU, Name: "XD SUs Charged: Total", Unit: "XD SU", Func: warehouse.AggSum, Column: ColXDSU},
			{ID: MetricAvgWaitHours, Name: "Wait Hours: Per Job", Unit: "Hour", Func: warehouse.AggAvg, Column: ColWaitSec, Scale: 1.0 / 3600},
			{ID: MetricAvgJobSize, Name: "Job Size: Per Job", Unit: "Core Count", Func: warehouse.AggAvg, Column: ColCores},
			{ID: MetricMaxJobSize, Name: "Job Size: Max", Unit: "Core Count", Func: warehouse.AggMax, Column: ColCores},
		},
		Dimensions: []realm.Dimension{
			{ID: DimResource, Name: "Resource", Column: ColResource},
			{ID: DimUser, Name: "User", Column: ColUser},
			{ID: DimPI, Name: "PI", Column: ColPI},
			{ID: DimQueue, Name: "Queue", Column: ColQueue},
			{ID: DimWallTime, Name: "Job Wall Time", Column: ColWallSec, Numeric: true},
			{ID: DimJobSize, Name: "Job Size", Column: ColCores, Numeric: true},
		},
	}
}

// Batch is jobfact rows under construction as typed column vectors,
// one per column of Def in its order: what ingest inserts in one call
// (warehouse.Table.InsertColumns), with no boxed row per fact. No cell
// is NULL, so no vector carries validity.
type Batch struct {
	cd  warehouse.ColumnData
	ixs []store.Index // by column: a string column's dictionary index
}

// NewBatch starts an empty batch with room for n rows.
func NewBatch(n int) *Batch {
	def := Def()
	b := &Batch{cd: warehouse.ColumnData{Names: make([]string, len(def.Columns)), Cols: make([]warehouse.ColumnVector, len(def.Columns))},
		ixs: make([]store.Index, len(def.Columns))}
	for i, c := range def.Columns {
		b.cd.Names[i] = c.Name
		b.cd.Cols[i].Type = c.Type
		b.cd.Cols[i].Reserve(n)
		b.cd.Cols[i].Nulls = nil
	}
	return b
}

// Add validates a staging record, converts its CPU hours to XD SUs for
// its resource (none without a converter) and appends it as one row; a
// record refused leaves the batch as it was. A time outside what a time
// column holds (store.UnixNanos) is refused here, where an insert of
// the boxed row would refuse it.
func (b *Batch) Add(rec shredder.JobRecord, conv *su.Converter) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	cpuh := rec.CPUHours()
	xdsu := 0.0
	if conv != nil {
		v, err := conv.ToXDSU(rec.Resource, cpuh)
		if err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		xdsu = v
	}
	var nanos [3]int64
	for i, t := range [3]time.Time{rec.Submit, rec.Start, rec.End} {
		n, ok := store.UnixNanos(t)
		if !ok {
			return fmt.Errorf("jobs: job %d: %s %v is outside the years 1678 to 2262", rec.LocalJobID, [3]string{ColSubmit, ColStart, ColEnd}[i], t)
		}
		nanos[i] = n
	}
	c := b.cd.Cols // by position in Def
	str := func(col int, v string) {
		c[col].Codes = append(c[col].Codes, c[col].Intern(&b.ixs[col], v))
	}
	c[0].Ints = append(c[0].Ints, rec.LocalJobID)
	str(1, rec.Resource)
	str(2, rec.User)
	str(3, rec.Account)
	str(4, rec.Queue)
	c[5].Ints = append(c[5].Ints, rec.Nodes)
	c[6].Ints = append(c[6].Ints, rec.Cores)
	for i, n := range nanos {
		c[7+i].Nanos = append(c[7+i].Nanos, n)
	}
	c[10].Floats = append(c[10].Floats, rec.Wall().Seconds())
	c[11].Floats = append(c[11].Floats, rec.Wait().Seconds())
	c[12].Floats = append(c[12].Floats, cpuh)
	c[13].Floats = append(c[13].Floats, xdsu)
	str(14, rec.ExitState)
	c[15].Ints = append(c[15].Ints, realm.DayKey(rec.End))
	c[16].Ints = append(c[16].Ints, realm.MonthKey(rec.End))
	b.cd.Rows++
	return nil
}

// Len returns the number of rows added.
func (b *Batch) Len() int { return b.cd.Rows }

// Columns returns the batch as a columnar payload of the jobfact
// table. It shares the batch's vectors: add nothing after handing it
// on.
func (b *Batch) Columns() *warehouse.ColumnData { return &b.cd }

// FactRowFromRecord converts a staging record into a positional
// jobfact row (Def column order), applying the XD SU conversion for
// the record's resource: the boxed form of a row Batch.Add appends,
// kept for tests that write facts a row at a time.
func FactRowFromRecord(rec shredder.JobRecord, conv *su.Converter) ([]any, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	cpuh := rec.CPUHours()
	xdsu := 0.0
	if conv != nil {
		v, err := conv.ToXDSU(rec.Resource, cpuh)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		xdsu = v
	}
	return []any{
		rec.LocalJobID,
		rec.Resource,
		rec.User,
		rec.Account,
		rec.Queue,
		rec.Nodes,
		rec.Cores,
		rec.Submit,
		rec.Start,
		rec.End,
		rec.Wall().Seconds(),
		rec.Wait().Seconds(),
		cpuh,
		xdsu,
		rec.ExitState,
		realm.DayKey(rec.End),
		realm.MonthKey(rec.End),
	}, nil
}

// FactFromRecord converts a staging record into a named jobfact row,
// applying the XD SU conversion for the record's resource.
func FactFromRecord(rec shredder.JobRecord, conv *su.Converter) (map[string]any, error) {
	vals, err := FactRowFromRecord(rec, conv)
	if err != nil {
		return nil, err
	}
	def := Def()
	row := make(map[string]any, len(vals))
	for i, c := range def.Columns {
		row[c.Name] = vals[i]
	}
	return row, nil
}
