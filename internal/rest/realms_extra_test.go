package rest

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"xdmodfed/internal/auth"
)

func TestAllocationEndpoints(t *testing.T) {
	in := testInstance(t) // 20 jobs, PI "a", resource rush, 8 cores * 2h = 16 XDSU each
	in.Auth.Vault().Create(auth.User{Username: "joe", Role: auth.RoleUser}, "joespassword1")
	srv := newServer(in).Handler()
	admin := login(t, srv)
	joe := loginAs(t, srv, "joe", "joespassword1")

	award := allocationRequest{
		Project: "a", Award: 10000,
		Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	if rec := post(t, srv, joe, "/api/allocations", award); rec.Code != http.StatusForbidden {
		t.Errorf("end user added an allocation: %d", rec.Code)
	}
	if rec := post(t, srv, admin, "/api/allocations", award); rec.Code != http.StatusCreated {
		t.Fatalf("add allocation: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, srv, admin, "/api/allocations", allocationRequest{Project: "bad"}); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid allocation accepted: %d", rec.Code)
	}

	rec := post(t, srv, admin, "/api/allocations/charge", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("charge: %d %s", rec.Code, rec.Body)
	}
	var charged map[string]int
	json.Unmarshal(rec.Body.Bytes(), &charged)
	if charged["charged_jobs"] != 20 {
		t.Errorf("charged = %v", charged)
	}
	// A second run finds every charge unchanged: it rewrites nothing,
	// so it logs nothing, and still counts the jobs it matched.
	head := in.DB.Binlog().Last()
	rec = post(t, srv, admin, "/api/allocations/charge", nil)
	charged = nil
	json.Unmarshal(rec.Body.Bytes(), &charged)
	if rec.Code != http.StatusOK || charged["charged_jobs"] != 20 {
		t.Errorf("second charge run: %d %s", rec.Code, rec.Body)
	}
	if n := in.DB.Binlog().Last() - head; n != 0 {
		t.Errorf("a charge run that changed nothing logged %d events", n)
	}

	rec = get(t, srv, joe, "/api/allocations/a")
	if rec.Code != http.StatusOK {
		t.Fatalf("balance: %d %s", rec.Code, rec.Body)
	}
	var bal balanceResponse
	json.Unmarshal(rec.Body.Bytes(), &bal)
	if bal.Award != 10000 || bal.Charged != 20*16 || bal.Remaining != 10000-320 {
		t.Errorf("balance = %+v", bal)
	}
	if rec := get(t, srv, joe, "/api/allocations/ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown project: %d", rec.Code)
	}

	rec = get(t, srv, joe, "/api/allocations/overspent")
	if rec.Code != http.StatusOK {
		t.Fatalf("overspent: %d", rec.Code)
	}
	var over []balanceResponse
	json.Unmarshal(rec.Body.Bytes(), &over)
	if len(over) != 0 {
		t.Errorf("overspent = %+v", over)
	}
}

func TestGatewayEndpoints(t *testing.T) {
	in := testInstance(t)
	in.Auth.Vault().Create(auth.User{Username: "ops", Role: auth.RoleStaff}, "opspassword1")
	srv := newServer(in).Handler()
	admin := login(t, srv)
	ops := loginAs(t, srv, "ops", "opspassword1")

	subs := []gatewaySubmissionRequest{
		{Gateway: "cipres", PortalUser: "biologist", Resource: "rush", JobID: 1,
			Submitted: time.Date(2017, 1, 10, 0, 0, 0, 0, time.UTC)},
		{Gateway: "cipres", PortalUser: "chemist", Resource: "rush", JobID: 999,
			Submitted: time.Date(2017, 1, 10, 0, 0, 0, 0, time.UTC)},
	}
	if rec := post(t, srv, admin, "/api/gateways/submissions", subs); rec.Code != http.StatusForbidden {
		t.Errorf("manager attributed submissions: %d", rec.Code)
	}
	rec := post(t, srv, ops, "/api/gateways/submissions", subs)
	if rec.Code != http.StatusOK {
		t.Fatalf("submissions: %d %s", rec.Code, rec.Body)
	}
	var res map[string]int
	json.Unmarshal(rec.Body.Bytes(), &res)
	if res["recorded"] != 2 || res["matched_jobs"] != 1 {
		t.Errorf("attribution = %v", res)
	}
	if rec := post(t, srv, ops, "/api/gateways/submissions", []gatewaySubmissionRequest{{}}); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid submission accepted: %d", rec.Code)
	}
	// A batch is all or nothing: its valid submission is not stored either.
	mixed := []gatewaySubmissionRequest{{Gateway: "cipres", PortalUser: "physicist", Resource: "rush", JobID: 2,
		Submitted: time.Date(2017, 1, 10, 0, 0, 0, 0, time.UTC)}, {}}
	if rec := post(t, srv, ops, "/api/gateways/submissions", mixed); rec.Code != http.StatusBadRequest {
		t.Errorf("batch with an invalid submission accepted: %d", rec.Code)
	}

	rec = get(t, srv, admin, "/api/gateways/users")
	if rec.Code != http.StatusOK {
		t.Fatalf("users: %d", rec.Code)
	}
	var users map[string]int
	json.Unmarshal(rec.Body.Bytes(), &users)
	if users["cipres"] != 2 {
		t.Errorf("community users = %v", users)
	}
}
