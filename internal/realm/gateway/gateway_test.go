package gateway_test

import (
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/ingest"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/warehouse"
)

var subTime = time.Date(2017, 5, 1, 10, 0, 0, 0, time.UTC)

// setupPipeline returns a pipeline over a warehouse holding the Jobs
// and Gateways realms, the latter with its aggregation tables.
func setupPipeline(t *testing.T) *ingest.Pipeline {
	t.Helper()
	db := warehouse.Open("g")
	if _, err := realm.Setup(db, jobs.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, gateway.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	eng, err := aggregate.New(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Setup(gateway.RealmInfo()); err != nil {
		t.Fatal(err)
	}
	return &ingest.Pipeline{DB: db, Engine: eng}
}

func addJob(t *testing.T, db *warehouse.DB, id int64) {
	t.Helper()
	rec := shredder.JobRecord{
		LocalJobID: id, User: "gateway_svc", Account: "gw", Resource: "comet", Queue: "shared",
		Nodes: 1, Cores: 4,
		Submit: subTime, Start: subTime.Add(10 * time.Minute), End: subTime.Add(70 * time.Minute),
	}
	row, err := jobs.FactFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(jobs.SchemaName, jobs.FactTable, row); err != nil {
		t.Fatal(err)
	}
}

func TestRealmInfoValid(t *testing.T) {
	if err := gateway.RealmInfo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmissionValidate(t *testing.T) {
	good := gateway.Submission{Gateway: "cipres", PortalUser: "biologist42", Resource: "comet", JobID: 1, Submitted: subTime}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []gateway.Submission{
		{},
		{Gateway: "g", Resource: "r", JobID: 1, Submitted: subTime},
		{Gateway: "g", PortalUser: "u", JobID: 1, Submitted: subTime},
		{Gateway: "g", PortalUser: "u", Resource: "r", Submitted: subTime},
		{Gateway: "g", PortalUser: "u", Resource: "r", JobID: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAttributeAndBackfill(t *testing.T) {
	p := setupPipeline(t)
	db := p.DB
	addJob(t, db, 100)
	subs := []gateway.Submission{
		{Gateway: "cipres", PortalUser: "alice", Resource: "comet", JobID: 100, Submitted: subTime},
		{Gateway: "cipres", PortalUser: "bob", Resource: "comet", JobID: 200, Submitted: subTime}, // job not yet accounted
	}
	_, matched, err := p.AttributeGatewayJobs(subs)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched %d, want 1", matched)
	}
	tab, _ := db.TableIn(gateway.SchemaName, gateway.FactTable)
	db.View(func() error {
		r, ok := tab.GetByKey("comet", int64(100))
		if !ok || r.Float("cpu_hours") != 4.0 { // 4 cores * 1h
			t.Errorf("denormalized usage wrong: %v", r.Values())
		}
		r2, _ := tab.GetByKey("comet", int64(200))
		if r2.Float("cpu_hours") != 0 {
			t.Error("unmatched job should have zero usage")
		}
		return nil
	})

	// Accounting arrives later; re-attribution backfills usage.
	addJob(t, db, 200)
	_, matched, err = p.AttributeGatewayJobs(subs)
	if err != nil || matched != 2 {
		t.Fatalf("backfill: matched=%d err=%v", matched, err)
	}
	db.View(func() error {
		r, _ := tab.GetByKey("comet", int64(200))
		if r.Float("cpu_hours") != 4.0 {
			t.Errorf("backfill failed: %v", r.Values())
		}
		return nil
	})
	if db.Count(gateway.SchemaName, gateway.FactTable) != 2 {
		t.Errorf("fact rows = %d (upsert must not duplicate)", db.Count(gateway.SchemaName, gateway.FactTable))
	}
}

func TestAttributeValidation(t *testing.T) {
	p := setupPipeline(t)
	if _, _, err := p.AttributeGatewayJobs([]gateway.Submission{{}}); err == nil {
		t.Error("invalid submission accepted")
	}
	bare := &ingest.Pipeline{DB: warehouse.Open("bare"), Engine: p.Engine}
	if _, _, err := bare.AttributeGatewayJobs(nil); err == nil {
		t.Error("missing realm setup accepted")
	}
}

func TestCommunityUsers(t *testing.T) {
	p := setupPipeline(t)
	db := p.DB
	subs := []gateway.Submission{
		{Gateway: "cipres", PortalUser: "a", Resource: "comet", JobID: 1, Submitted: subTime},
		{Gateway: "cipres", PortalUser: "b", Resource: "comet", JobID: 2, Submitted: subTime},
		{Gateway: "cipres", PortalUser: "a", Resource: "comet", JobID: 3, Submitted: subTime},
		{Gateway: "nanohub", PortalUser: "z", Resource: "comet", JobID: 4, Submitted: subTime},
	}
	if _, _, err := p.AttributeGatewayJobs(subs); err != nil {
		t.Fatal(err)
	}
	users, err := gateway.CommunityUsers(db)
	if err != nil {
		t.Fatal(err)
	}
	if users["cipres"] != 2 || users["nanohub"] != 1 {
		t.Errorf("community users = %v", users)
	}
}
