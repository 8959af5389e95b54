package rest

import (
	"encoding/json"
	"net/http"
	"testing"

	"xdmodfed/internal/hierarchy"
)

func TestChartRollup(t *testing.T) {
	in := testInstance(t) // 20 jobs across users u0,u1,u2 with PI "a"
	h, err := hierarchy.New(hierarchy.Config{
		Levels: hierarchy.DefaultLevels(),
		Nodes: []hierarchy.NodeConfig{
			{Name: "College", Level: "Decanal Unit"},
			{Name: "Dept", Level: "Department", Parent: "College"},
			{Name: "a-lab", Level: "PI Group", Parent: "Dept"},
		},
		Assignments: map[string]string{"a": "a-lab"},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Hierarchy = h
	srv := newServer(in).Handler()
	token := login(t, srv)

	rec := get(t, srv, token,
		"/api/chart?realm=Jobs&metric=job_count&group_by=pi&period=year&rollup=Department")
	if rec.Code != http.StatusOK {
		t.Fatalf("rollup: %d %s", rec.Code, rec.Body)
	}
	var resp chartResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if len(resp.Series) != 1 || resp.Series[0].Group != "Dept" || resp.Series[0].Aggregate != 20 {
		t.Errorf("rollup series = %+v", resp.Series)
	}

	// rollup without group_by=pi is rejected.
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count&group_by=person&rollup=Department"); rec.Code != http.StatusBadRequest {
		t.Errorf("rollup with wrong group_by: %d", rec.Code)
	}
	// rollup without a configured hierarchy is rejected.
	in.Hierarchy = nil
	if rec := get(t, srv, token, "/api/chart?realm=Jobs&metric=job_count&group_by=pi&rollup=Department"); rec.Code != http.StatusBadRequest {
		t.Errorf("rollup without hierarchy: %d", rec.Code)
	}
}
