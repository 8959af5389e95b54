package aggregate

import (
	"context"
	"errors"
	"testing"

	"xdmodfed/internal/realm/jobs"
)

// A canceled context aborts the aggregation scan instead of walking
// the table: the front door relies on this so a shed or disconnected
// chart client releases its admission slot promptly.
func TestQueryStatsCtxCanceled(t *testing.T) {
	_, eng, info := fixture(t, 200, 7)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	series, qi, err := eng.QueryStatsCtx(ctx, info, Request{MetricID: jobs.MetricCPUHours, Period: Month})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if series != nil {
		t.Fatalf("canceled query returned %d series", len(series))
	}
	if qi.RowsScanned != 0 {
		t.Fatalf("canceled-before-start query scanned %d rows", qi.RowsScanned)
	}
	// A live context still answers normally through the same path.
	series, _, err = eng.QueryStatsCtx(context.Background(), info, Request{MetricID: jobs.MetricCPUHours, Period: Month})
	if err != nil || len(series) == 0 {
		t.Fatalf("uncanceled query: %d series, %v", len(series), err)
	}
}
