package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
)

func testHubServer(t *testing.T) (*core.Hub, http.Handler) {
	t.Helper()
	hub, err := core.NewHub(config.InstanceConfig{
		Name: "hub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{config.HubWallTime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub.Instance.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")
	hub.Instance.Auth.Vault().Create(auth.User{Username: "joe", Role: auth.RoleUser}, "joespassword1")
	return hub, NewHubServer(hub).Handler()
}

func post(t *testing.T, srv http.Handler, token, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, _ := json.Marshal(body)
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func loginAs(t *testing.T, srv http.Handler, user, pass string) string {
	t.Helper()
	rec := post(t, srv, "", "/api/auth/login", map[string]string{"username": user, "password": pass})
	if rec.Code != http.StatusOK {
		t.Fatalf("login %s: %d %s", user, rec.Code, rec.Body)
	}
	var resp map[string]string
	json.Unmarshal(rec.Body.Bytes(), &resp)
	return resp["token"]
}

func TestAddMemberRequiresManager(t *testing.T) {
	_, srv := testHubServer(t)
	admin := loginAs(t, srv, "admin", "hunter2hunter2")
	joe := loginAs(t, srv, "joe", "joespassword1")

	if rec := post(t, srv, joe, "/api/federation/members", addMemberRequest{Name: "siteA"}); rec.Code != http.StatusForbidden {
		t.Errorf("end user registered a member: %d", rec.Code)
	}
	if rec := post(t, srv, admin, "/api/federation/members", addMemberRequest{Name: "siteA"}); rec.Code != http.StatusCreated {
		t.Errorf("manager add member: %d %s", rec.Code, rec.Body)
	}
	if rec := post(t, srv, admin, "/api/federation/members", addMemberRequest{Name: "siteA"}); rec.Code != http.StatusConflict {
		t.Errorf("duplicate member: %d", rec.Code)
	}
	// Member shows up in status.
	rec := get(t, srv, admin, "/api/federation/status")
	var st federationStatusResponse
	json.Unmarshal(rec.Body.Bytes(), &st)
	if len(st.Members) != 1 || st.Members[0].Name != "siteA" {
		t.Errorf("status = %+v", st)
	}
}

func TestIdentityEndpoints(t *testing.T) {
	hub, srv := testHubServer(t)
	admin := loginAs(t, srv, "admin", "hunter2hunter2")

	hub.Identity.Observe(auth.InstanceUser{Instance: "s1", Username: "u"}, "", "")
	hub.Identity.Observe(auth.InstanceUser{Instance: "s2", Username: "u"}, "", "")

	rec := get(t, srv, admin, "/api/federation/identity/s1/u")
	if rec.Code != http.StatusOK {
		t.Fatalf("resolve: %d %s", rec.Code, rec.Body)
	}
	var resp identityResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.PersonID == "" || len(resp.Accounts) != 1 {
		t.Errorf("resolve = %+v", resp)
	}

	if rec := get(t, srv, admin, "/api/federation/identity/s9/u"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown identity: %d", rec.Code)
	}

	linkRec := post(t, srv, admin, "/api/federation/identity/link", linkRequest{
		A: auth.InstanceUser{Instance: "s1", Username: "u"},
		B: auth.InstanceUser{Instance: "s2", Username: "u"},
	})
	if linkRec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", linkRec.Code, linkRec.Body)
	}
	var linked identityResponse
	json.Unmarshal(linkRec.Body.Bytes(), &linked)
	if len(linked.Accounts) != 2 {
		t.Errorf("linked accounts = %+v", linked)
	}

	badLink := post(t, srv, admin, "/api/federation/identity/link", linkRequest{
		A: auth.InstanceUser{Instance: "zz", Username: "zz"},
		B: auth.InstanceUser{Instance: "s1", Username: "u"},
	})
	if badLink.Code != http.StatusBadRequest {
		t.Errorf("bad link: %d", badLink.Code)
	}
}

func TestBackupEndpoint(t *testing.T) {
	hub, srv := testHubServer(t)
	admin := loginAs(t, srv, "admin", "hunter2hunter2")
	hub.Register("siteA")
	// Materialize a fed schema so there is something to back up.
	hub.DB.EnsureSchema("fed_siteA")

	rec := get(t, srv, admin, "/api/federation/backup/siteA")
	if rec.Code != http.StatusOK {
		t.Fatalf("backup: %d %s", rec.Code, rec.Body)
	}
	if rec.Body.Len() == 0 {
		t.Error("empty backup stream")
	}
	if rec := get(t, srv, admin, "/api/federation/backup/ghost"); rec.Code == http.StatusOK {
		t.Error("backup of unknown instance succeeded")
	}
}

func TestAggregateEndpoint(t *testing.T) {
	_, srv := testHubServer(t)
	admin := loginAs(t, srv, "admin", "hunter2hunter2")
	rec := post(t, srv, admin, "/api/federation/aggregate", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("aggregate: %d %s", rec.Code, rec.Body)
	}
	var counts map[string]int
	json.Unmarshal(rec.Body.Bytes(), &counts)
	if _, ok := counts["Jobs"]; !ok {
		t.Errorf("counts = %v", counts)
	}
}

func TestFederationEndpointsOnSatellite(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	if rec := post(t, srv, token, "/api/federation/members", addMemberRequest{Name: "x"}); rec.Code != http.StatusForbidden && rec.Code != http.StatusNotFound {
		t.Errorf("satellite member add: %d", rec.Code)
	}
}
