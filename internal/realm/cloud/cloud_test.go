package cloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

var t0 = time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)

func ev(vm string, typ EventType, offsetH float64, cores int64, memGB float64) Event {
	return Event{
		VMID: vm, Resource: "lakeeffect", User: "u", Project: "p", InstanceType: "m1",
		Type: typ, Time: t0.Add(time.Duration(offsetH * float64(time.Hour))),
		Cores: cores, MemoryGB: memGB,
	}
}

func TestRealmInfoValid(t *testing.T) {
	if err := RealmInfo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleLifecycle(t *testing.T) {
	events := []Event{
		ev("vm1", EvRequest, 0, 2, 4),
		ev("vm1", EvStart, 1, 2, 4),
		ev("vm1", EvStop, 5, 2, 4),
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(sessions))
	}
	s := sessions[0]
	if s.Wall() != 4*time.Hour || s.CoreHours() != 8 {
		t.Errorf("wall %v core-hours %g", s.Wall(), s.CoreHours())
	}
	if !s.Ended || s.Terminated {
		t.Errorf("flags wrong: %+v", s)
	}
}

func TestStopResumeProducesTwoSessions(t *testing.T) {
	events := []Event{
		ev("vm1", EvStart, 0, 1, 2),
		ev("vm1", EvStop, 2, 1, 2),
		ev("vm1", EvResume, 10, 1, 2),
		ev("vm1", EvTerminate, 13, 1, 2),
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	if sessions[0].Wall() != 2*time.Hour || sessions[1].Wall() != 3*time.Hour {
		t.Errorf("walls: %v %v", sessions[0].Wall(), sessions[1].Wall())
	}
	if !sessions[1].Terminated {
		t.Error("final session should be terminated")
	}
	// The VM's wall time (5h) differs from any single job's runtime —
	// the paper's point that VM wall time != job wall time.
	var totalWall time.Duration
	for _, s := range sessions {
		totalWall += s.Wall()
	}
	if totalWall != 5*time.Hour {
		t.Errorf("total VM wall = %v, want 5h", totalWall)
	}
}

func TestResizeSplitsSession(t *testing.T) {
	events := []Event{
		ev("vm1", EvStart, 0, 2, 4),
		ev("vm1", EvResize, 4, 8, 16), // grows mid-life
		ev("vm1", EvStop, 6, 8, 16),
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(sessions))
	}
	if sessions[0].Cores != 2 || sessions[1].Cores != 8 {
		t.Errorf("cores: %d then %d", sessions[0].Cores, sessions[1].Cores)
	}
	if sessions[0].MemoryGB != 4 || sessions[1].MemoryGB != 16 {
		t.Errorf("memory: %g then %g", sessions[0].MemoryGB, sessions[1].MemoryGB)
	}
	// Core hours reflect each configuration's span: 2*4 + 8*2 = 24.
	total := sessions[0].CoreHours() + sessions[1].CoreHours()
	if total != 24 {
		t.Errorf("total core hours = %g, want 24", total)
	}
}

func TestRunningAtHorizon(t *testing.T) {
	events := []Event{ev("vm1", EvStart, 0, 1, 1)}
	sessions, err := ReconstructSessions(events, t0.Add(10*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Ended {
		t.Fatalf("running VM should yield one open session: %+v", sessions)
	}
	if sessions[0].Wall() != 10*time.Hour {
		t.Errorf("wall to horizon = %v", sessions[0].Wall())
	}
}

func TestDuplicateAndOutOfProtocolEvents(t *testing.T) {
	events := []Event{
		ev("vm1", EvStop, 0, 1, 1), // stop while stopped: ignored
		ev("vm1", EvStart, 1, 1, 1),
		ev("vm1", EvStart, 2, 4, 4), // duplicate start: ignored (keeps first config)
		ev("vm1", EvStop, 3, 1, 1),
		ev("vm1", EvTerminate, 4, 1, 1), // terminate while stopped: no session
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(sessions))
	}
	if sessions[0].Cores != 1 || sessions[0].Wall() != 2*time.Hour {
		t.Errorf("session: %+v", sessions[0])
	}
}

func TestUnorderedEventsAreSorted(t *testing.T) {
	events := []Event{
		ev("vm1", EvStop, 5, 2, 4),
		ev("vm1", EvStart, 1, 2, 4),
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Wall() != 4*time.Hour {
		t.Fatalf("unordered events mishandled: %+v", sessions)
	}
}

func TestInvalidEventRejected(t *testing.T) {
	bad := []Event{
		{},
		{VMID: "v", Type: EvStart, Time: t0}, // no resource
		{VMID: "v", Resource: "r", Type: "EXPLODE", Time: t0},             // bad type
		{VMID: "v", Resource: "r", Type: EvStart},                         // no time
		{VMID: "v", Resource: "r", Type: EvStart, Time: t0, Cores: -1},    // negative
		{VMID: "v", Resource: "r", Type: EvStart, Time: t0, MemoryGB: -3}, // negative
	}
	for i, e := range bad {
		if _, err := ReconstructSessions([]Event{e}, t0); err == nil {
			t.Errorf("case %d: expected error for %+v", i, e)
		}
	}
}

func TestMultipleVMsIndependent(t *testing.T) {
	events := []Event{
		ev("a", EvStart, 0, 1, 1),
		ev("b", EvStart, 1, 2, 2),
		ev("a", EvStop, 2, 1, 1),
		ev("b", EvTerminate, 3, 2, 2),
	}
	sessions, err := ReconstructSessions(events, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	if sessions[0].VMID != "a" || sessions[1].VMID != "b" {
		t.Errorf("order: %s %s", sessions[0].VMID, sessions[1].VMID)
	}
}

func TestSetupAndSessionRow(t *testing.T) {
	db := warehouse.Open("c")
	if _, err := realm.Setup(db, RealmInfo()); err != nil {
		t.Fatal(err)
	}
	if _, err := realm.Setup(db, RealmInfo()); err != nil {
		t.Fatalf("setup not idempotent: %v", err)
	}
	s := Session{
		VMID: "vm9", Resource: "r", User: "u", Project: "p", InstanceType: "m1",
		Cores: 2, MemoryGB: 4, Start: t0, End: t0.Add(90 * time.Minute), Ended: true,
	}
	if err := db.InsertRow(SchemaName, SessionTable, SessionValues(s, 0)); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableIn(SchemaName, SessionTable)
	if err != nil {
		t.Fatal(err)
	}
	db.View(func() error {
		row, ok := tab.GetByKey("vm9/0")
		if !ok {
			t.Fatal("session row vm9/0 not stored")
		}
		if row.Float("wall_hours") != 1.5 || row.Float("core_hours") != 3.0 {
			t.Errorf("derived columns wrong: %v %v", row.Get("wall_hours"), row.Get("core_hours"))
		}
		if row.Int("month_key") != 201704 {
			t.Errorf("month key = %v", row.Get("month_key"))
		}
		return nil
	})
}

// TestPropertySessionInvariants: for arbitrary well-formed event
// streams, (1) sessions never overlap per VM, (2) every session has
// End >= Start, (3) total running time never exceeds first-event →
// horizon span.
func TestPropertySessionInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var events []Event
		horizon := t0.Add(time.Duration(int(n)+1) * time.Hour)
		vms := []string{"a", "b", "c"}
		types := []EventType{EvStart, EvStop, EvPause, EvResume, EvResize, EvTerminate, EvRequest}
		for i := 0; i < int(n); i++ {
			events = append(events, ev(
				vms[rng.Intn(len(vms))],
				types[rng.Intn(len(types))],
				rng.Float64()*float64(int(n)),
				int64(rng.Intn(8)+1),
				math.Round(rng.Float64()*8*100)/100,
			))
		}
		sessions, err := ReconstructSessions(events, horizon)
		if err != nil {
			return false
		}
		last := map[string]time.Time{}
		running := map[string]time.Duration{}
		for _, s := range sessions {
			if s.End.Before(s.Start) {
				return false
			}
			if prev, ok := last[s.VMID]; ok && s.Start.Before(prev) {
				return false // overlap
			}
			last[s.VMID] = s.End
			running[s.VMID] += s.Wall()
		}
		first := map[string]time.Time{}
		for _, e := range events {
			if v, ok := first[e.VMID]; !ok || e.Time.Before(v) {
				first[e.VMID] = e.Time
			}
		}
		for vm, total := range running {
			if total > horizon.Sub(first[vm])+time.Nanosecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
