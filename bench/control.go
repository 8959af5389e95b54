package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"xdmodfed/internal/replicate"
)

// controlCharts are the fixed chart requests per realm whose HTTP
// bodies must be bit-equal on the live hub and on the control hub.
var controlCharts = []string{
	"realm=Jobs&metric=job_count&group_by=resource&period=month",
	"realm=Jobs&metric=total_cpu_hours&group_by=queue&period=quarter",
	"realm=Jobs&metric=total_su_charged&group_by=person&period=year",
	"realm=Jobs&metric=avg_waitduration_hours&group_by=job_size&period=month",
	"realm=Jobs&metric=max_job_size&group_by=job_wall_time&period=day&start=20170301&end=20170331",
	"realm=Cloud&metric=cloud_core_time&group_by=vm_memory&period=month",
	"realm=Cloud&metric=cloud_num_sessions_started&group_by=project&period=quarter",
	"realm=Cloud&metric=cloud_avg_memory_reserved&group_by=instance_type&period=year",
	"realm=Storage&metric=file_count&group_by=resource&period=month",
	"realm=Storage&metric=logical_usage&group_by=person&period=day",
	"realm=Storage&metric=user_count&group_by=resource_type&period=year",
}

// verify checks the live hub against a control hub: each member's
// final binlog goes through its route's rewriter straight into a fresh
// hub with ApplyBatch — no WAL, no network, no pushdown, one batch —
// which aggregates from scratch. Every control chart is then compared
// twice over HTTP. First the live hub as it stands, folded batch by
// batch, must agree with the control to within float rounding (sums
// folded across different batch boundaries associate differently).
// Then the live hub too re-aggregates from scratch, as chaos_test.go
// does, and the bodies must be equal byte for byte. It returns the
// comparisons made and the ones that failed.
func verify(fed *federation) (checked, mismatched int, err error) {
	control, err := newHub()
	if err != nil {
		return 0, 0, err
	}
	for _, m := range fed.members {
		if err := control.Register(m.spec.name); err != nil {
			return 0, 0, err
		}
		last := m.sat.DB.Binlog().Last()
		evs, err := m.sat.DB.Binlog().ReadFrom(0, 0)
		if err != nil {
			return 0, 0, err
		}
		out, _ := replicate.NewRewriter(m.spec.name, m.spec.filter()).ProcessBatch(evs)
		if err := control.ApplyBatch(m.spec.name, last, out); err != nil {
			return 0, 0, fmt.Errorf("bench: control apply for %s: %w", m.spec.name, err)
		}
	}
	if _, err := control.AggregateFederation(); err != nil {
		return 0, 0, err
	}
	front, err := serve(control)
	if err != nil {
		return 0, 0, err
	}
	defer front.Close()
	want := make([][]byte, len(controlCharts))
	for i, q := range controlCharts {
		if want[i], err = front.get(q); err != nil {
			return 0, 0, err
		}
	}
	compare := func(what string, same func(got, want []byte) bool) error {
		for i, q := range controlCharts {
			got, err := fed.front.get(q)
			if err != nil {
				return err
			}
			checked++
			if !same(got, want[i]) {
				mismatched++
				fmt.Fprintf(os.Stderr, "bench: FAILED: chart %s %s the control:\n live:    %s\n control: %s\n", q, what, clip(got), clip(want[i]))
			}
		}
		return nil
	}
	if err := compare("as served is not within rounding of", sameWithinRounding); err != nil {
		return checked, mismatched, err
	}
	if _, err := fed.front.hub.AggregateFederation(); err != nil {
		return checked, mismatched, err
	}
	return checked, mismatched, compare("re-aggregated is not bit-equal to", bytes.Equal)
}

// sameWithinRounding compares two chart JSON bodies: structure, keys,
// strings and integers exactly, other numbers to a relative 1e-9.
func sameWithinRounding(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return closeJSON(x, y)
}

func closeJSON(x, y any) bool {
	switch x := x.(type) {
	case map[string]any:
		y, ok := y.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !closeJSON(v, w) {
				return false
			}
		}
		return true
	case []any:
		y, ok := y.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !closeJSON(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := y.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	default:
		return x == y
	}
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return append(b[:400:400], "..."...)
	}
	return b
}
