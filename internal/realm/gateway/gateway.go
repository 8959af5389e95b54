// Package gateway implements the Science Gateways realm. The paper's
// abstract lists science gateways among the resource types Open XDMoD
// has been extended to support: gateways (web portals such as
// CIPRES or nanoHUB) submit HPC jobs on behalf of community users
// under a shared gateway account, so center-side accounting sees one
// user where there may be thousands. This realm ingests gateway
// attribution records — which portal user was behind which HPC job —
// and reports per-gateway usage and community-user activity.
package gateway

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations for the realm.
const (
	SchemaName = "modw_gateway"
	FactTable  = "gateway_submission"
)

// Submission is one gateway attribution record: a portal user ran one
// HPC job through a gateway.
type Submission struct {
	Gateway    string // gateway name, e.g. "cipres"
	PortalUser string // community username at the gateway
	Resource   string // HPC resource the job ran on
	JobID      int64  // local job id on that resource
	Submitted  time.Time
}

// Validate rejects malformed records.
func (s Submission) Validate() error {
	if s.Gateway == "" {
		return fmt.Errorf("gateway: submission missing gateway name")
	}
	if s.PortalUser == "" {
		return fmt.Errorf("gateway: submission via %q missing portal user", s.Gateway)
	}
	if s.Resource == "" || s.JobID <= 0 {
		return fmt.Errorf("gateway: submission via %q missing job identity", s.Gateway)
	}
	if s.Submitted.IsZero() {
		return fmt.Errorf("gateway: submission via %q missing timestamp", s.Gateway)
	}
	return nil
}

// Def returns the gateway fact table definition. cpu_hours and xdsu
// are denormalized from the Jobs realm at attribution time so gateway
// charts aggregate without joins.
func Def() warehouse.TableDef {
	return warehouse.TableDef{
		Name: FactTable,
		Columns: []warehouse.Column{
			{Name: "gateway", Type: warehouse.TypeString},
			{Name: "portal_user", Type: warehouse.TypeString},
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "job_id", Type: warehouse.TypeInt},
			{Name: "submit_time", Type: warehouse.TypeTime},
			{Name: "cpu_hours", Type: warehouse.TypeFloat},
			{Name: "xdsu", Type: warehouse.TypeFloat},
			{Name: "month_key", Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{"resource", "job_id"},
	}
}

// Metric and dimension IDs.
const (
	MetricJobs     = "gateway_job_count"
	MetricCPUHours = "gateway_cpu_hours"
	MetricXDSU     = "gateway_su_charged"

	DimGateway    = "gateway"
	DimPortalUser = "portal_user"
	DimResource   = "resource"
)

// RealmInfo describes the Gateways realm.
func RealmInfo() realm.Info {
	return realm.Info{
		Name:       "Gateways",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{Def()},
		FactTable:  FactTable,
		TimeColumn: "submit_time",
		Metrics: []realm.Metric{
			{ID: MetricJobs, Name: "Number of Gateway Jobs", Unit: "jobs", Func: warehouse.AggCount},
			{ID: MetricCPUHours, Name: "Gateway CPU Hours", Unit: "CPU Hour", Func: warehouse.AggSum, Column: "cpu_hours"},
			{ID: MetricXDSU, Name: "Gateway XD SUs Charged", Unit: "XD SU", Func: warehouse.AggSum, Column: "xdsu"},
		},
		Dimensions: []realm.Dimension{
			{ID: DimGateway, Name: "Gateway", Column: "gateway"},
			{ID: DimPortalUser, Name: "Gateway User", Column: "portal_user"},
			{ID: DimResource, Name: "Resource", Column: "resource"},
		},
	}
}

// FactValues returns a submission's fact row. Its cpu_hours and xdsu
// are denormalized from the Jobs realm's row of the job when jobTab
// holds one (found), and zero until the accounting record arrives;
// re-attributing the submission then backfills them. It reads jobTab's
// writer state, so it runs inside the write transaction that stores
// the row (ingest.Pipeline.AttributeGatewayJobs).
func FactValues(jobTab *warehouse.Table, s Submission) (row []any, found bool) {
	cpu, xdsu := 0.0, 0.0
	if jr, ok := jobTab.GetByKey(s.Resource, s.JobID); ok {
		cpu, xdsu, found = jr.Float(jobs.ColCPUHours), jr.Float(jobs.ColXDSU), true
	}
	return []any{s.Gateway, s.PortalUser, s.Resource, s.JobID, s.Submitted, cpu, xdsu, realm.MonthKey(s.Submitted)}, found
}

// CommunityUsers counts distinct portal users per gateway — the
// community-size figure gateways report to their funders.
func CommunityUsers(db *warehouse.DB) (map[string]int, error) {
	tab, err := db.TableIn(SchemaName, FactTable)
	if err != nil {
		return nil, err
	}
	seen := map[string]map[string]bool{}
	db.View(func() error {
		tab.Scan(func(r warehouse.Row) bool {
			g := r.String("gateway")
			if seen[g] == nil {
				seen[g] = map[string]bool{}
			}
			seen[g][r.String("portal_user")] = true
			return true
		})
		return nil
	})
	out := make(map[string]int, len(seen))
	for g, users := range seen {
		out[g] = len(users)
	}
	return out, nil
}
