package rest

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/perf"
)

func TestJobViewerEndpoint(t *testing.T) {
	in := testInstance(t)
	// Attach a perf summary to job 5.
	sum := map[string]any{"job_id": 5, "resource": "rush", "n_samples": 4, "month_key": 201705,
		"start_time": time.Date(2017, 5, 10, 0, 0, 0, 0, time.UTC)}
	for _, m := range perf.MetricNames {
		sum["avg_"+m], sum["peak_"+m] = 0.0, 0.0
	}
	sum["avg_cpu_user"], sum["peak_cpu_user"] = 90.0, 90.0
	if err := in.DB.Upsert(perf.SchemaName, perf.SummaryTable, sum); err != nil {
		t.Fatal(err)
	}
	srv := newServer(in).Handler()
	token := login(t, srv)

	rec := get(t, srv, token, "/api/jobs/rush/5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var detail core.JobDetail
	if err := json.Unmarshal(rec.Body.Bytes(), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Accounting.JobID != 5 || !detail.HasPerf || detail.AvgMetrics["cpu_user"] != 90 {
		t.Errorf("detail = %+v", detail)
	}

	if rec := get(t, srv, token, "/api/jobs/rush/99999"); rec.Code != http.StatusNotFound {
		t.Errorf("missing job status = %d", rec.Code)
	}
	if rec := get(t, srv, token, "/api/jobs/rush/notanumber"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d", rec.Code)
	}
	if rec := get(t, srv, "", "/api/jobs/rush/5"); rec.Code != http.StatusUnauthorized {
		t.Errorf("unauthenticated status = %d", rec.Code)
	}
}
