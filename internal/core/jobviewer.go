package core

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/perf"
)

// The Job Viewer: "with XDMoD's Job Viewer, users can probe
// performance data about a job's executable, its accounting data, job
// scripts, application, and timeseries plots of metrics such as CPU
// user, flops, parallel file system usage, and memory usage" (paper
// §IV). JobDetail assembles that view from the Jobs realm (accounting)
// and the SUPReMM realm (the job's performance summary). The instance
// keeps no raw timeseries or job scripts: the paper federates only
// summaries (§II-C5), and nothing here collects the detail.

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

// JobDetail is the Job Viewer document for one job.
type JobDetail struct {
	Accounting  JobAccounting
	HasPerf     bool
	AvgMetrics  map[string]float64 // SUPReMM summary averages
	PeakMetrics map[string]float64
}

// JobDetail looks up one job by (resource, local job id): its
// accounting and, when the job has one, its SUPReMM summary, from one
// view. Every instance sets both realms up (realm.Setup), so both tables
// exist; on a hub they hold only its own resources' jobs.
func (in *Instance) JobDetail(resource string, jobID int64) (*JobDetail, error) {
	factTab, err := in.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		return nil, err
	}
	sumTab, err := in.DB.TableIn(perf.SchemaName, perf.SummaryTable)
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
		if r, ok := sumTab.GetByKey(resource, jobID); ok {
			detail.HasPerf = true
			detail.AvgMetrics = map[string]float64{}
			detail.PeakMetrics = map[string]float64{}
			for _, m := range perf.MetricNames {
				detail.AvgMetrics[m] = r.Float("avg_" + m)
				detail.PeakMetrics[m] = r.Float("peak_" + m)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return detail, nil
}
