package rest

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
)

// TestClientEndToEndLooseFederation drives the full loose-federation
// loop through public surfaces only: a satellite schedules periodic
// dumps, ships them through the typed REST client, and the hub's
// unified view updates.
func TestClientEndToEndLooseFederation(t *testing.T) {
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "hub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{config.HubWallTime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("remote-site")
	hub.Auth.Vault().Create(auth.User{Username: "fedadmin", Role: auth.RoleManager}, "manager-pass1")
	api := httptest.NewServer(NewHubServer(hub).Handler())
	defer api.Close()

	client := NewClient(api.URL)
	if err := client.Login("fedadmin", "manager-pass1"); err != nil {
		t.Fatal(err)
	}

	// Satellite with a loose route pointing at the hub's REST API.
	satCfg := config.InstanceConfig{
		Name: "remote-site", Version: core.Version,
		Resources:         []config.ResourceConfig{{Name: "r", Type: "hpc", SUFactor: 1}},
		AggregationLevels: []config.AggregationLevels{config.InstanceAWallTime()},
		Hubs:              []config.HubRoute{{HubAddr: api.URL, Mode: "loose"}},
	}
	sat, err := core.NewSatellite(satCfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	var recs []shredder.JobRecord
	for i := 0; i < 12; i++ {
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: "u", Account: "a", Resource: "r", Queue: "q",
			Nodes: 1, Cores: 4,
			Submit: base, Start: base.Add(time.Minute), End: base.Add(time.Hour),
		})
	}
	if _, err := sat.Pipeline.IngestJobRecords(recs); err != nil {
		t.Fatal(err)
	}

	// One scheduled shipment (fast ticker, cancel after first success).
	ctx, cancel := context.WithCancel(context.Background())
	shippedc := make(chan int, 1)
	go func() {
		n, err := sat.RunLooseFederation(ctx, 5*time.Millisecond, func(route config.HubRoute, dump io.Reader) error {
			err := client.UploadLooseDump("remote-site", dump)
			if err == nil {
				cancel()
			}
			return err
		})
		if err != nil {
			t.Error(err)
		}
		shippedc <- n
	}()
	select {
	case n := <-shippedc:
		if n < 1 {
			t.Fatalf("shipped %d dumps", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loose shipment never completed")
	}

	// Unified view through the client.
	res, err := client.Chart("Jobs", map[string]string{"metric": jobs.MetricNumJobs, "period": "year"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || res.Series[0].Aggregate != 12 {
		t.Errorf("federated chart = %+v", res.Series)
	}

	st, err := client.FederationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Members) != 1 || st.Members[0].Batches != 1 {
		t.Errorf("status = %+v", st)
	}

	// Member registration through the client.
	if err := client.RegisterMember("another-site"); err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterMember("another-site"); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestClientAuthFailures(t *testing.T) {
	in := testInstance(t)
	api := httptest.NewServer(newServer(in).Handler())
	defer api.Close()
	client := NewClient(api.URL)
	if err := client.Login("admin", "wrong"); err == nil {
		t.Error("bad login accepted")
	}
	if _, err := client.Chart("Jobs", nil); err == nil {
		t.Error("unauthenticated chart accepted")
	}
	if err := client.Login("admin", "hunter2hunter2"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Chart("Jobs", map[string]string{"metric": "job_count"}); err != nil {
		t.Errorf("chart after login: %v", err)
	}
	if _, err := client.JobDetail("rush", 1); err != nil {
		t.Errorf("job detail: %v", err)
	}
	if _, err := client.JobDetail("rush", 99999); err == nil {
		t.Error("missing job accepted")
	}
}
