package alloc_test

import (
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/ingest"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
)

var (
	winStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	winEnd   = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
)

// setupPipeline returns a pipeline over a warehouse holding the Jobs and
// Allocations realms, the latter with its aggregation tables.
func setupPipeline(t *testing.T) *ingest.Pipeline {
	t.Helper()
	db := warehouse.Open("a")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, alloc.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, alloc.RealmInfo()); err != nil {
		t.Fatalf("setup not idempotent: %v", err)
	}
	eng, err := aggregate.New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(alloc.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	return &ingest.Pipeline{DB: db, Engine: eng}
}

func ingestJob(t *testing.T, db *warehouse.DB, id int64, project string, end time.Time, cores int64, hours float64) {
	t.Helper()
	conv := su.NewConverter()
	conv.Register("rush", 1.0)
	rec := shredder.JobRecord{
		LocalJobID: id, User: "u", Account: project, Resource: "rush", Queue: "q",
		Nodes: 1, Cores: cores,
		Submit: end.Add(-time.Duration(hours*float64(time.Hour)) - time.Minute),
		Start:  end.Add(-time.Duration(hours * float64(time.Hour))),
		End:    end,
	}
	row, err := jobs.FactFromRecord(rec, conv)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationValidate(t *testing.T) {
	good := alloc.Allocation{Project: "p", Award: 1000, Start: winStart, End: winEnd}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []alloc.Allocation{
		{Award: 1, Start: winStart, End: winEnd},
		{Project: "p", Start: winStart, End: winEnd},
		{Project: "p", Award: -1, Start: winStart, End: winEnd},
		{Project: "p", Award: 1, Start: winEnd, End: winStart},
		{Project: "p", Award: 1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRealmInfoValid(t *testing.T) {
	if err := alloc.RealmInfo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChargeFromJobs(t *testing.T) {
	p := setupPipeline(t)
	db := p.DB
	if err := alloc.AddAllocation(db, alloc.Allocation{Project: "chem", Award: 10000, Start: winStart, End: winEnd}); err != nil {
		t.Fatal(err)
	}
	mid := time.Date(2017, 6, 1, 12, 0, 0, 0, time.UTC)
	ingestJob(t, db, 1, "chem", mid, 10, 10)                  // 100 XDSU, charged
	ingestJob(t, db, 2, "chem", mid, 10, 5)                   // 50 XDSU, charged
	ingestJob(t, db, 3, "bio", mid, 10, 10)                   // no allocation: not charged
	ingestJob(t, db, 4, "chem", winEnd.Add(time.Hour), 10, 1) // outside window

	st, err := p.ChargeAllocations()
	if err != nil {
		t.Fatal(err)
	}
	if st.Parsed != 2 {
		t.Fatalf("charged %d jobs, want 2", st.Parsed)
	}
	// Idempotent.
	if st, err = p.ChargeAllocations(); err != nil || st.Parsed != 2 {
		t.Fatalf("re-run: n=%d err=%v", st.Parsed, err)
	}
	if got := db.Count(alloc.SchemaName, alloc.ChargeTable); got != 2 {
		t.Errorf("charge rows = %d", got)
	}

	b, err := alloc.ProjectBalance(db, "chem", mid.AddDate(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if b.Charged != 150 || b.Remaining != 9850 {
		t.Errorf("balance = %+v", b)
	}
	if b.BurnPerDay <= 0 || b.ProjectedExhaustion.IsZero() {
		t.Errorf("burn projection missing: %+v", b)
	}
	if _, err := alloc.ProjectBalance(db, "ghost", mid); err == nil {
		t.Error("unknown project should error")
	}
}

func TestOverspentProjects(t *testing.T) {
	p := setupPipeline(t)
	db := p.DB
	alloc.AddAllocation(db, alloc.Allocation{Project: "small", Award: 10, Start: winStart, End: winEnd})
	alloc.AddAllocation(db, alloc.Allocation{Project: "big", Award: 100000, Start: winStart, End: winEnd})
	mid := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	ingestJob(t, db, 1, "small", mid, 16, 10) // 160 XDSU against a 10 XDSU award
	ingestJob(t, db, 2, "big", mid, 16, 10)
	if _, err := p.ChargeAllocations(); err != nil {
		t.Fatal(err)
	}
	over, err := alloc.OverspentProjects(db, mid.AddDate(0, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 1 || over[0].Project != "small" || over[0].Remaining >= 0 {
		t.Errorf("overspent = %+v", over)
	}
}

func TestChargeWithoutSetup(t *testing.T) {
	db := warehouse.Open("x")
	eng, err := aggregate.New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &ingest.Pipeline{DB: db, Engine: eng}
	if _, err := p.ChargeAllocations(); err == nil {
		t.Error("expected error without realm setup")
	}
	realm.Setup(db, jobs.RealmInfo())
	if _, err := p.ChargeAllocations(); err == nil {
		t.Error("expected error without alloc setup")
	}
}

func TestMultipleAwardsSameProject(t *testing.T) {
	p := setupPipeline(t)
	db := p.DB
	h1End := time.Date(2017, 7, 1, 0, 0, 0, 0, time.UTC)
	alloc.AddAllocation(db, alloc.Allocation{Project: "p", Award: 100, Start: winStart, End: h1End})
	alloc.AddAllocation(db, alloc.Allocation{Project: "p", Award: 200, Start: h1End, End: winEnd})
	ingestJob(t, db, 1, "p", time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC), 1, 10) // H1
	ingestJob(t, db, 2, "p", time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC), 1, 10) // H2
	st, err := p.ChargeAllocations()
	if err != nil || st.Parsed != 2 {
		t.Fatalf("n=%d err=%v", st.Parsed, err)
	}
	b, err := alloc.ProjectBalance(db, "p", winEnd)
	if err != nil {
		t.Fatal(err)
	}
	if b.Award != 300 || b.Charged != 20 {
		t.Errorf("balance = %+v", b)
	}
}
