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
	// Attach perf detail to job 5: four samples, their summary and the
	// job script.
	for i := 0; i < 4; i++ {
		row := map[string]any{"job_id": 5, "resource": "rush", "offset_sec": float64(60 * i)}
		for _, m := range perf.MetricNames {
			row[m] = 0.0
		}
		row["cpu_user"] = 90.0
		if err := in.DB.Insert(perf.SchemaName, perf.TimeseriesTable, row); err != nil {
			t.Fatal(err)
		}
	}
	sum := map[string]any{"job_id": 5, "resource": "rush", "n_samples": 4, "month_key": 201705,
		"start_time": time.Date(2017, 5, 10, 0, 0, 0, 0, time.UTC)}
	for _, m := range perf.MetricNames {
		sum["avg_"+m], sum["peak_"+m] = 0.0, 0.0
	}
	sum["avg_cpu_user"], sum["peak_cpu_user"] = 90.0, 90.0
	if err := in.DB.Upsert(perf.SchemaName, perf.SummaryTable, sum); err != nil {
		t.Fatal(err)
	}
	if err := in.DB.Upsert(perf.SchemaName, perf.ScriptTable, map[string]any{
		"job_id": 5, "resource": "rush", "script": "#!/bin/bash\n./a.out\n",
	}); err != nil {
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
	if detail.Accounting.JobID != 5 || !detail.HasPerf || len(detail.Timeseries) != 4 || detail.Script == "" {
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
