package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/warehouse"
)

// The Job Viewer: "with XDMoD's Job Viewer, users can probe
// performance data about a job's executable, its accounting data, job
// scripts, application, and timeseries plots of metrics such as CPU
// user, flops, parallel file system usage, and memory usage" (paper
// §IV). JobDetail assembles that view from the Jobs realm (accounting)
// and the SUPReMM realm (summary, timeseries, script). The detailed
// parts exist only on the satellite that monitors the resource — the
// hub deliberately holds summaries only (§II-C5).

// JobAccounting is the Jobs-realm view of one job.
type JobAccounting struct {
	JobID    int64
	Resource string
	User     string
	PI       string
	Queue    string
	Nodes    int64
	Cores    int64
	Submit   time.Time
	Start    time.Time
	End      time.Time
	WallSec  float64
	WaitSec  float64
	CPUHours float64
	XDSU     float64
	Exit     string
}

// JobPerfPoint is one timeseries sample of the nine SUPReMM metrics.
type JobPerfPoint struct {
	OffsetSec float64
	Values    map[string]float64
}

// JobDetail is the Job Viewer document for one job.
type JobDetail struct {
	Accounting  JobAccounting
	HasPerf     bool
	AvgMetrics  map[string]float64 // SUPReMM summary averages
	PeakMetrics map[string]float64
	Timeseries  []JobPerfPoint // satellite-only detail
	Script      string         // satellite-only detail
}

// JobDetail looks up one job by (resource, local job id).
func (in *Instance) JobDetail(resource string, jobID int64) (*JobDetail, error) {
	factTab, err := in.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		return nil, err
	}
	var detail *JobDetail
	err = in.DB.View(func() error {
		r, ok := factTab.GetByKey(resource, jobID)
		if !ok {
			return fmt.Errorf("core: no job %d on resource %q", jobID, resource)
		}
		getTime := func(col string) time.Time {
			if v, _ := r.Lookup(col); v != nil {
				return v.(time.Time)
			}
			return time.Time{}
		}
		detail = &JobDetail{Accounting: JobAccounting{
			JobID:    r.Int(jobs.ColJobID),
			Resource: r.String(jobs.ColResource),
			User:     r.String(jobs.ColUser),
			PI:       r.String(jobs.ColPI),
			Queue:    r.String(jobs.ColQueue),
			Nodes:    r.Int(jobs.ColNodes),
			Cores:    r.Int(jobs.ColCores),
			Submit:   getTime(jobs.ColSubmit),
			Start:    getTime(jobs.ColStart),
			End:      getTime(jobs.ColEnd),
			WallSec:  r.Float(jobs.ColWallSec),
			WaitSec:  r.Float(jobs.ColWaitSec),
			CPUHours: r.Float(jobs.ColCPUHours),
			XDSU:     r.Float(jobs.ColXDSU),
			Exit:     r.String(jobs.ColExit),
		}}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The job's SUPReMM summary, timeseries and script, from one view.
	// Every instance sets the realm up (realm.Setup), so all three
	// tables exist; on a hub they hold only its own resources' jobs.
	sumTab, err1 := in.DB.TableIn(perf.SchemaName, perf.SummaryTable)
	tsTab, err2 := in.DB.TableIn(perf.SchemaName, perf.TimeseriesTable)
	scTab, err3 := in.DB.TableIn(perf.SchemaName, perf.ScriptTable)
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	in.DB.View(func() error {
		if r, ok := sumTab.GetByKey(resource, jobID); ok {
			detail.HasPerf = true
			detail.AvgMetrics = map[string]float64{}
			detail.PeakMetrics = map[string]float64{}
			for _, m := range perf.MetricNames {
				detail.AvgMetrics[m] = r.Float("avg_" + m)
				detail.PeakMetrics[m] = r.Float("peak_" + m)
			}
		}
		tsTab.ScanIndex([]string{"resource", "job_id"}, []any{resource, jobID}, func(r warehouse.Row) bool {
			pt := JobPerfPoint{OffsetSec: r.Float("offset_sec"), Values: map[string]float64{}}
			for _, m := range perf.MetricNames {
				pt.Values[m] = r.Float(m)
			}
			detail.Timeseries = append(detail.Timeseries, pt)
			return true
		})
		if r, ok := scTab.GetByKey(resource, jobID); ok {
			detail.Script = r.String("script")
		}
		return nil
	})
	sort.Slice(detail.Timeseries, func(i, j int) bool {
		return detail.Timeseries[i].OffsetSec < detail.Timeseries[j].OffsetSec
	})
	return detail, nil
}
