package core

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
)

// TestFailingMemberIsRetriedNotRefused: a member whose batch cannot
// apply on the hub (the hub already holds a row under the key of the
// member's first job) is never refused at handshake: its sender
// reconnects on its own backoff, each refused batch counts in the
// member's Failures with the hub's error in LastError, and its position
// stays after the events the hub applied. A healthy member beside it
// replicates untouched. Once the conflicting row is gone, the next retry
// applies, the member catches up to its binlog head, and its failures
// clear.
func TestFailingMemberIsRetriedNotRefused(t *testing.T) {
	hub, err := NewHub(hubCfg("hub"))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := hub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 8
	sats := map[string]*Satellite{}
	for _, name := range []string{"bad", "good"} {
		if err := hub.Register(name); err != nil {
			t.Fatal(err)
		}
		sat, err := NewSatellite(satCfg(name, []string{"r-" + name}, ""))
		if err != nil {
			t.Fatal(err)
		}
		ingestJobs(t, sat, "r-"+name, n, time.Hour, 1)
		sats[name] = sat
	}

	// The hub holds the bad member's first job before the member sends
	// it: that insert fails on its key.
	route := config.HubRoute{HubAddr: addr, Mode: "tight"}
	rw, err := sats["bad"].rewriterFor(route)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sats["bad"].DB.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs, _ = rw.ProcessBatch(evs)
	first := slices.IndexFunc(evs, func(ev warehouse.Event) bool {
		return ev.Kind == warehouse.EvInsert && ev.Table == jobs.FactTable
	})
	if first < 1 || evs[first].Row == nil {
		t.Fatalf("no row insert into %s after the DDL in the bad member's binlog", jobs.FactTable)
	}
	conflict := evs[first]
	if _, err := hub.DB.ApplyAll(evs[:first+1]); err != nil {
		t.Fatal(err)
	}

	for name, sat := range sats {
		rw, err := sat.rewriterFor(route)
		if err != nil {
			t.Fatal(err)
		}
		s := &replicate.Sender{Instance: name, Version: Version, DB: sat.DB, Rewriter: rw}
		go s.RunWithRetry(ctx, addr, 10*time.Millisecond)
	}

	member := func(name string) Member {
		for _, m := range hub.Members() {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("no member %q", name)
		return Member{}
	}
	waitFor(t, func() bool { return member("bad").Failures >= 3 })
	bad := member("bad")
	if !strings.Contains(bad.LastError, "duplicate") {
		t.Errorf("bad member's last error = %q, want the duplicate key", bad.LastError)
	}
	if err := hub.authorize("bad"); err != nil {
		t.Errorf("a failing member is refused at handshake: %v", err)
	}
	if bad.Position != evs[first-1].LSN {
		t.Errorf("bad member's position = %d, want %d (the events before the failing insert)", bad.Position, evs[first-1].LSN)
	}
	waitFor(t, func() bool { return member("good").Position == sats["good"].DB.Binlog().Last() })
	if good := member("good"); good.Failures != 0 || good.LastError != "" {
		t.Errorf("healthy member = %+v, want no failures", good)
	}

	// Remove the conflicting row: the next retry applies.
	if _, err := hub.DB.ApplyAll([]warehouse.Event{{Kind: warehouse.EvDelete,
		Schema: conflict.Schema, Table: conflict.Table, Old: conflict.Row}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return member("bad").Position == sats["bad"].DB.Binlog().Last() })
	if bad := member("bad"); bad.Failures != 0 || bad.LastError != "" {
		t.Errorf("caught-up member = %+v, want its failures cleared", bad)
	}
	if got := hub.DB.Count(replicate.HubSchema("bad"), jobs.FactTable); got != n {
		t.Errorf("hub holds %d of the bad member's facts, want %d", got, n)
	}
}
