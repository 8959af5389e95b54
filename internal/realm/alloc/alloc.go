// Package alloc implements the Allocations realm. The paper describes
// XDMoD as supporting "job, allocation, and performance data and
// metrics" (§I); this realm tracks project allocations — awards of
// XD SUs over a time window — and the charges the Jobs realm accrues
// against them, exposing award/charge/balance and burn-rate metrics so
// "funding agencies, institutional administration, computing center
// management" (§I-A) can watch consumption against awards.
package alloc

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations for the realm.
const (
	SchemaName  = "modw_alloc"
	AwardTable  = "allocation"
	ChargeTable = "allocation_charge"
)

// Allocation is one award of standardized SUs to a project.
type Allocation struct {
	Project string // charge account, matches jobfact's pi column
	Award   float64
	Start   time.Time
	End     time.Time
}

// Validate checks the award.
func (a Allocation) Validate() error {
	if a.Project == "" {
		return fmt.Errorf("alloc: allocation missing project")
	}
	if a.Award <= 0 {
		return fmt.Errorf("alloc: allocation for %q has non-positive award %g", a.Project, a.Award)
	}
	if a.Start.IsZero() || a.End.IsZero() || !a.End.After(a.Start) {
		return fmt.Errorf("alloc: allocation for %q has invalid window", a.Project)
	}
	return nil
}

// AwardDef returns the allocation table definition.
func AwardDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: AwardTable,
		Columns: []warehouse.Column{
			{Name: "project", Type: warehouse.TypeString},
			{Name: "award_xdsu", Type: warehouse.TypeFloat},
			{Name: "start_time", Type: warehouse.TypeTime},
			{Name: "end_time", Type: warehouse.TypeTime},
		},
		PrimaryKey: []string{"project", "start_time"},
	}
}

// ChargeDef returns the charge fact table definition: one row per job
// charged to an allocation.
func ChargeDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: ChargeTable,
		Columns: []warehouse.Column{
			{Name: "project", Type: warehouse.TypeString},
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "job_id", Type: warehouse.TypeInt},
			{Name: "charge_time", Type: warehouse.TypeTime},
			{Name: "xdsu", Type: warehouse.TypeFloat},
			{Name: "month_key", Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{"resource", "job_id"},
	}
}

// Metric and dimension IDs.
const (
	MetricCharged   = "alloc_xdsu_charged"
	MetricChargeJob = "alloc_jobs_charged"

	DimProject  = "project"
	DimResource = "resource"
)

// RealmInfo describes the Allocations realm over the charge table. It
// is local: charges are derived from the instance's own jobs and
// awards, so its facts stay on the instance.
func RealmInfo() realm.Info {
	return realm.Info{
		Name:       "Allocations",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{AwardDef(), ChargeDef()},
		FactTable:  ChargeTable,
		TimeColumn: "charge_time",
		Local:      true,
		Metrics: []realm.Metric{
			{ID: MetricCharged, Name: "XD SUs Charged to Allocations", Unit: "XD SU", Func: warehouse.AggSum, Column: "xdsu"},
			{ID: MetricChargeJob, Name: "Jobs Charged", Unit: "jobs", Func: warehouse.AggCount},
		},
		Dimensions: []realm.Dimension{
			{ID: DimProject, Name: "Project", Column: "project"},
			{ID: DimResource, Name: "Resource", Column: "resource"},
		},
	}
}

// AddAllocation records one award.
func AddAllocation(db *warehouse.DB, a Allocation) error {
	if err := a.Validate(); err != nil {
		return err
	}
	return db.Upsert(SchemaName, AwardTable, map[string]any{
		"project": a.Project, "award_xdsu": a.Award,
		"start_time": a.Start, "end_time": a.End,
	})
}

// Charges derives allocation charges from the Jobs realm fact table:
// every job whose PI matches an allocation's project and that ended
// within the award window is charged its XD SUs, one charge-table row
// per job. It reads the tables' writer state, so it runs inside the
// write transaction that stores the charges
// (ingest.Pipeline.ChargeAllocations).
func Charges(awardTab, jobTab *warehouse.Table) [][]any {
	type window struct{ start, end time.Time }
	windows := map[string][]window{}
	awardTab.Scan(func(r warehouse.Row) bool {
		st, _ := r.Lookup("start_time")
		en, _ := r.Lookup("end_time")
		windows[r.String("project")] = append(windows[r.String("project")], window{st.(time.Time), en.(time.Time)})
		return true
	})
	var charges [][]any
	jobTab.Scan(func(r warehouse.Row) bool {
		project := r.String(jobs.ColPI)
		endV, _ := r.Lookup(jobs.ColEnd)
		end := endV.(time.Time)
		for _, w := range windows[project] {
			if !end.Before(w.start) && end.Before(w.end) {
				charges = append(charges, []any{project, r.String(jobs.ColResource), r.Int(jobs.ColJobID),
					end, r.Float(jobs.ColXDSU), r.Int(jobs.ColMonthKey)})
				break
			}
		}
		return true
	})
	return charges
}

// Balance summarizes one project's allocation state.
type Balance struct {
	Project   string
	Award     float64
	Charged   float64
	Remaining float64
	// BurnPerDay is the average charge rate over the window so far;
	// ProjectedExhaustion is when the award runs out at that rate (zero
	// time when it will not).
	BurnPerDay          float64
	ProjectedExhaustion time.Time
}

// ProjectBalance computes the balance of one project at time now.
func ProjectBalance(db *warehouse.DB, project string, now time.Time) (Balance, error) {
	all, err := balances(db, now)
	if err != nil {
		return Balance{}, err
	}
	for _, b := range all {
		if b.Project == project {
			return b, nil
		}
	}
	return Balance{}, fmt.Errorf("alloc: project %q has no allocation", project)
}

// OverspentProjects returns projects whose charges exceed their award.
func OverspentProjects(db *warehouse.DB, now time.Time) ([]Balance, error) {
	all, err := balances(db, now)
	if err != nil {
		return nil, err
	}
	var out []Balance
	for _, b := range all {
		if b.Remaining < 0 {
			out = append(out, b)
		}
	}
	return out, nil
}

// balances computes the balance at now of every project with an award,
// in the order the award table first names them, from one scan of the
// award table and one of the charge table.
func balances(db *warehouse.DB, now time.Time) ([]Balance, error) {
	awardTab, err := db.TableIn(SchemaName, AwardTable)
	if err != nil {
		return nil, err
	}
	chargeTab, err := db.TableIn(SchemaName, ChargeTable)
	if err != nil {
		return nil, err
	}
	var out []Balance
	var starts []time.Time // each project's earliest award start
	at := map[string]int{}
	db.View(func() error {
		awardTab.Scan(func(r warehouse.Row) bool {
			p := r.String("project")
			i, ok := at[p]
			if !ok {
				i = len(out)
				at[p] = i
				out = append(out, Balance{Project: p})
				starts = append(starts, time.Time{})
			}
			out[i].Award += r.Float("award_xdsu")
			st, _ := r.Lookup("start_time")
			if st := st.(time.Time); starts[i].IsZero() || st.Before(starts[i]) {
				starts[i] = st
			}
			return true
		})
		chargeTab.Scan(func(r warehouse.Row) bool {
			if i, ok := at[r.String("project")]; ok {
				out[i].Charged += r.Float("xdsu")
			}
			return true
		})
		return nil
	})
	for i := range out {
		b := &out[i]
		b.Remaining = b.Award - b.Charged
		if days := now.Sub(starts[i]).Hours() / 24; days > 0 {
			b.BurnPerDay = b.Charged / days
			if b.BurnPerDay > 0 && b.Remaining > 0 {
				b.ProjectedExhaustion = now.Add(time.Duration(b.Remaining / b.BurnPerDay * 24 * float64(time.Hour)))
			}
		}
	}
	return out, nil
}
