package rest

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"xdmodfed/internal/auth"
)

func TestAppKernelEndpoints(t *testing.T) {
	in := testInstance(t)
	in.Auth.Vault().Create(auth.User{Username: "ops", Role: auth.RoleStaff}, "opspassword1")
	srv := newServer(in).Handler()
	admin := login(t, srv) // manager, not staff
	ops := loginAs(t, srv, "ops", "opspassword1")

	// Recording runs requires center-staff role.
	run := appKernelRunRequest{Kernel: "hpcc", Resource: "rush", Nodes: 2,
		Time: time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC), Value: 120}
	if rec := post(t, srv, admin, "/api/appkernels/runs", run); rec.Code != http.StatusForbidden {
		t.Errorf("manager recorded a run: %d", rec.Code)
	}
	// Record a full baseline plus a degradation.
	for i := 0; i < 30; i++ {
		run.Time = run.Time.Add(6 * time.Hour)
		run.Value = 120
		if rec := post(t, srv, ops, "/api/appkernels/runs", run); rec.Code != http.StatusCreated {
			t.Fatalf("record: %d %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 3; i++ {
		run.Time = run.Time.Add(6 * time.Hour)
		run.Value = 240
		post(t, srv, ops, "/api/appkernels/runs", run)
	}

	rec := get(t, srv, admin, "/api/appkernels")
	if rec.Code != http.StatusOK {
		t.Fatalf("reports: %d", rec.Code)
	}
	var reports []appKernelReport
	json.Unmarshal(rec.Body.Bytes(), &reports)
	if len(reports) != 1 || reports[0].Status != "degraded" {
		t.Errorf("reports = %+v", reports)
	}

	rec = get(t, srv, admin, "/api/appkernels/alarms")
	var alarms []appKernelReport
	json.Unmarshal(rec.Body.Bytes(), &alarms)
	if len(alarms) != 1 || alarms[0].Kernel != "hpcc" {
		t.Errorf("alarms = %+v", alarms)
	}

	// Invalid runs rejected.
	if rec := post(t, srv, ops, "/api/appkernels/runs", appKernelRunRequest{Kernel: "bogus"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad run: %d", rec.Code)
	}
}
