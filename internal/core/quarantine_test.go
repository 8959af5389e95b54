package core

import (
	"errors"
	"testing"
	"time"

	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
)

// poisonEvent cannot apply: it inserts into a schema the hub never
// created, which DB.Apply rejects.
func poisonEvent(lsn uint64) warehouse.Event {
	return warehouse.Event{
		LSN: lsn, Kind: warehouse.EvInsert,
		Schema: "no_such_schema", Table: "no_such_table", Row: []any{int64(1)},
	}
}

// benignEvent applies cleanly: schema creation is idempotent.
func benignEvent(lsn uint64, instance string) warehouse.Event {
	return warehouse.Event{
		LSN: lsn, Kind: warehouse.EvCreateSchema,
		Schema: replicate.HubSchema(instance),
	}
}

func retryAfter(t *testing.T, err error) *replicate.RetryAfterError {
	t.Helper()
	var ra *replicate.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("error = %v (%T), want *replicate.RetryAfterError", err, err)
	}
	return ra
}

// TestMemberQuarantineCircuitBreaker walks the breaker's whole life
// cycle with a fake clock: failures below the threshold do nothing,
// the threshold trips a quarantine whose refusals carry the remaining
// backoff, the quarantine expires into a half-open probe, a further
// failure re-trips with a doubled backoff, and one success resets
// everything — all without disturbing a healthy member.
func TestMemberQuarantineCircuitBreaker(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.quarThreshold, hub.quarBackoff, hub.quarMax = 2, 30*time.Second, 2*time.Minute
	now := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	hub.now = func() time.Time { return now }
	for _, m := range []string{"bad", "good"} {
		if err := hub.Register(m); err != nil {
			t.Fatal(err)
		}
	}

	// First failure: counted, not yet quarantined.
	if err := hub.ApplyBatch("bad", 1, []warehouse.Event{poisonEvent(1)}); err == nil {
		t.Fatal("poison batch applied cleanly")
	}
	if err := hub.authorize("bad"); err != nil {
		t.Fatalf("one failure below threshold must not quarantine: %v", err)
	}

	// Second failure: breaker trips.
	if err := hub.ApplyBatch("bad", 1, []warehouse.Event{poisonEvent(1)}); err == nil {
		t.Fatal("poison batch applied cleanly")
	}
	ra := retryAfter(t, hub.authorize("bad"))
	if ra.After <= 0 || ra.After > 30*time.Second {
		t.Fatalf("retry-after = %v, want (0, 30s]", ra.After)
	}
	// Batches on an already-open connection are bounced the same way,
	// even valid ones: the member sits out its quarantine.
	ra = retryAfter(t, hub.ApplyBatch("bad", 2, []warehouse.Event{benignEvent(2, "bad")}))
	if ra.After <= 0 {
		t.Fatalf("in-stream retry-after = %v, want positive", ra.After)
	}

	// The breaker is per-member: a healthy member keeps replicating.
	if err := hub.ApplyBatch("good", 1, []warehouse.Event{benignEvent(1, "good")}); err != nil {
		t.Fatalf("healthy member rejected while another is quarantined: %v", err)
	}

	// Quarantine is visible in federation status.
	var bad, good *Member
	for _, m := range hub.Status().Members {
		m := m
		switch m.Name {
		case "bad":
			bad = &m
		case "good":
			good = &m
		}
	}
	if bad == nil || !bad.Quarantined(now) || bad.Quarantines != 1 || bad.LastError == "" {
		t.Fatalf("status for quarantined member = %+v", bad)
	}
	if good == nil || good.Quarantined(now) || good.Failures != 0 {
		t.Fatalf("status for healthy member = %+v", good)
	}

	// Expiry: the member may probe again (half-open)...
	now = now.Add(31 * time.Second)
	if err := hub.authorize("bad"); err != nil {
		t.Fatalf("expired quarantine still rejecting: %v", err)
	}
	// ...but a single further failure re-trips with a doubled backoff.
	if err := hub.ApplyBatch("bad", 2, []warehouse.Event{poisonEvent(2)}); err == nil {
		t.Fatal("poison batch applied cleanly")
	}
	ra = retryAfter(t, hub.authorize("bad"))
	if ra.After <= 30*time.Second || ra.After > 60*time.Second {
		t.Fatalf("re-trip retry-after = %v, want (30s, 60s] (doubled)", ra.After)
	}

	// One successful batch after expiry fully resets the breaker.
	now = now.Add(61 * time.Second)
	if err := hub.ApplyBatch("bad", 3, []warehouse.Event{benignEvent(3, "bad")}); err != nil {
		t.Fatalf("valid batch after expiry rejected: %v", err)
	}
	for _, m := range hub.Status().Members {
		if m.Name != "bad" {
			continue
		}
		if m.Failures != 0 || m.Quarantines != 0 || m.Quarantined(now) || m.LastError != "" {
			t.Fatalf("breaker not reset after success: %+v", m)
		}
	}
}

// TestQuarantineBackoffCap: consecutive re-trips double the backoff
// only up to the cap.
func TestQuarantineBackoffCap(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	hub.quarThreshold, hub.quarBackoff, hub.quarMax = 1, 10*time.Second, 25*time.Second
	now := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	hub.now = func() time.Time { return now }
	if err := hub.Register("flappy"); err != nil {
		t.Fatal(err)
	}
	wantUpper := []time.Duration{10 * time.Second, 20 * time.Second, 25 * time.Second, 25 * time.Second}
	for i, want := range wantUpper {
		if err := hub.ApplyBatch("flappy", uint64(i+1), []warehouse.Event{poisonEvent(uint64(i + 1))}); err == nil {
			t.Fatal("poison batch applied cleanly")
		}
		ra := retryAfter(t, hub.authorize("flappy"))
		if ra.After != want {
			t.Fatalf("trip %d: backoff %v, want %v", i+1, ra.After, want)
		}
		now = now.Add(want + time.Second) // let it expire; next failure re-trips
	}
}
