package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/shredder"
)

func testInstance(t *testing.T) *core.Instance {
	t.Helper()
	cfg := config.InstanceConfig{
		Name: "ccr", Version: core.Version,
		Resources: []config.ResourceConfig{
			{Name: "rush", Type: "hpc", SUFactor: 1.0},
		},
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
	in, err := core.NewInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")
	var recs []shredder.JobRecord
	for i := 0; i < 20; i++ {
		end := time.Date(2017, time.Month(1+i%12), 10, 12, 0, 0, 0, time.UTC)
		recs = append(recs, shredder.JobRecord{
			LocalJobID: int64(i + 1), User: fmt.Sprintf("u%d", i%3), Account: "a",
			Resource: "rush", Queue: "batch", Nodes: 1, Cores: 8,
			Submit: end.Add(-3 * time.Hour), Start: end.Add(-2 * time.Hour), End: end,
		})
	}
	if _, err := in.Pipeline.IngestJobRecords(recs); err != nil {
		t.Fatal(err)
	}
	return in
}

func login(t *testing.T, srv http.Handler) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"username": "admin", "password": "hunter2hunter2"})
	req := httptest.NewRequest("POST", "/api/auth/login", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("login status %d: %s", rec.Code, rec.Body)
	}
	var resp map[string]string
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp["token"] == "" || resp["via"] != "local" {
		t.Fatalf("login response %v", resp)
	}
	return resp["token"]
}

func get(t *testing.T, srv http.Handler, token, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestVersionIsPublic(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	rec := get(t, srv, "", "/api/version")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var v map[string]string
	json.Unmarshal(rec.Body.Bytes(), &v)
	if v["name"] != "ccr" || v["role"] != "instance" {
		t.Errorf("version = %v", v)
	}
}

func TestAuthRequired(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	for _, path := range []string{"/api/realms", "/api/chart?realm=Jobs", "/api/federation/status"} {
		if rec := get(t, srv, "", path); rec.Code != http.StatusUnauthorized {
			t.Errorf("%s without token: status %d", path, rec.Code)
		}
		if rec := get(t, srv, "bogus", path); rec.Code != http.StatusUnauthorized {
			t.Errorf("%s with bad token: status %d", path, rec.Code)
		}
	}
}

func TestLoginRejectsBadCredentials(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	body, _ := json.Marshal(map[string]string{"username": "admin", "password": "wrong"})
	req := httptest.NewRequest("POST", "/api/auth/login", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("status %d", rec.Code)
	}
	req = httptest.NewRequest("POST", "/api/auth/login", strings.NewReader("{bad json"))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad json status %d", rec.Code)
	}
}

func TestRealmsEndpoint(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	rec := get(t, srv, token, "/api/realms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var realms []realmResponse
	json.Unmarshal(rec.Body.Bytes(), &realms)
	names := map[string]bool{}
	for _, r := range realms {
		names[r.Name] = true
	}
	for _, want := range []string{"Jobs", "Cloud", "Storage", "SUPReMM"} {
		if !names[want] {
			t.Errorf("realm %s missing from %v", want, names)
		}
	}
}

func TestChartJSON(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	rec := get(t, srv, token,
		"/api/chart?realm=Jobs&metric=job_count&group_by=person&period=year")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp chartResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Series) != 3 {
		t.Fatalf("series = %d", len(resp.Series))
	}
	var total float64
	for _, s := range resp.Series {
		total += s.Aggregate
	}
	if total != 20 {
		t.Errorf("total jobs = %g", total)
	}
}

func TestChartFilterAndRange(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	rec := get(t, srv, token,
		"/api/chart?realm=Jobs&metric=job_count&period=month&start=201701&end=201706&filter.person=u0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp chartResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	for _, s := range resp.Series {
		for _, p := range s.Points {
			if p.Key < 201701 || p.Key > 201706 {
				t.Errorf("point outside range: %d", p.Key)
			}
		}
	}
}

func TestChartFormats(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	cases := map[string]string{
		"csv":  "month,",
		"svg":  "<svg",
		"text": "TOTAL",
	}
	for format, marker := range cases {
		rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count&format="+format)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d", format, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), marker) {
			t.Errorf("%s output missing %q", format, marker)
		}
	}
}

func TestChartTopN(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count&group_by=person&period=year&top=2")
	var resp chartResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Series) != 2 {
		t.Errorf("top=2 returned %d series", len(resp.Series))
	}
	if len(resp.Series) == 2 && resp.Series[0].Aggregate < resp.Series[1].Aggregate {
		t.Error("top series not sorted descending")
	}
}

func TestChartErrors(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	cases := []string{
		"/api/chart",                             // no realm
		"/api/chart?realm=Nope&metric=job_count", // unknown realm
		"/api/chart?realm=Jobs&metric=nope",      // unknown metric
		"/api/chart?realm=Jobs&metric=job_count&period=century",
		"/api/chart?realm=Jobs&metric=job_count&start=abc",
		"/api/chart?realm=Jobs&metric=job_count&top=zero",
		"/api/chart?realm=Jobs&metric=job_count&format=pdf",
		"/api/chart?realm=Jobs&metric=job_count&group_by=nope",
	}
	for _, path := range cases {
		if rec := get(t, srv, token, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestSSOLoginEndpoint(t *testing.T) {
	in := testInstance(t)
	idp := auth.NewIdentityProvider("https://idp.example", "secret")
	idp.Register("remote_user", "pw", "ru@example.edu", "Remote User", nil)
	in.Auth.AddSSOSource(auth.SSOSource{Name: "shibboleth", Issuer: idp.Issuer, Secret: "secret", Metadata: true})
	srv := newServer(in).Handler()

	assertion, err := idp.Authenticate("remote_user", "pw", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(assertion)
	req := httptest.NewRequest("POST", "/api/auth/sso", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sso status %d: %s", rec.Code, rec.Body)
	}
	var resp map[string]string
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp["via"] != "shibboleth" {
		t.Errorf("via = %q", resp["via"])
	}
	// Token works for chart queries.
	chartRec := get(t, srv, resp["token"], "/api/chart?realm=Jobs&metric=job_count")
	if chartRec.Code != http.StatusOK {
		t.Errorf("sso token rejected: %d", chartRec.Code)
	}
	// Tampered assertion rejected.
	assertion.Subject = "root"
	body, _ = json.Marshal(assertion)
	req = httptest.NewRequest("POST", "/api/auth/sso", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("tampered assertion status %d", rec.Code)
	}
}

func TestLogoutInvalidatesToken(t *testing.T) {
	srv := newServer(testInstance(t)).Handler()
	token := login(t, srv)
	req := httptest.NewRequest("POST", "/api/auth/logout", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("logout status %d", rec.Code)
	}
	if rec := get(t, srv, token, "/api/realms"); rec.Code != http.StatusUnauthorized {
		t.Errorf("token survived logout: %d", rec.Code)
	}
}

func TestFederationStatusOnHub(t *testing.T) {
	hubCfg := config.InstanceConfig{
		Name: "hub", Version: core.Version,
		AggregationLevels: []config.AggregationLevels{config.HubWallTime()},
	}
	hub, err := core.NewHub(hubCfg)
	if err != nil {
		t.Fatal(err)
	}
	hub.Register("siteA")
	hub.Instance.Auth.Vault().Create(auth.User{Username: "admin", Role: auth.RoleManager}, "hunter2hunter2")
	srv := NewHubServer(hub).Handler()
	token := login(t, srv)
	rec := get(t, srv, token, "/api/federation/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp federationStatusResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Hub != "hub" || len(resp.Members) != 1 || resp.Members[0].Name != "siteA" {
		t.Errorf("federation status = %+v", resp)
	}

	// Satellites 404 the endpoint.
	sat := newServer(testInstance(t)).Handler()
	tok := login(t, sat)
	if rec := get(t, sat, tok, "/api/federation/status"); rec.Code != http.StatusNotFound {
		t.Errorf("satellite federation status = %d", rec.Code)
	}
}
