package cloud

import (
	"fmt"
	"sort"
	"time"

	"xdmodfed/internal/warehouse"
)

// vmState tracks one VM through the event stream.
type vmState struct {
	running bool
	cur     Session // open session when running
	seq     int
}

// ReconstructSessions replays a VM event stream through the lifecycle
// state machine and emits sessions. Events may arrive unordered; they
// are sorted by (vm, time) first. The horizon closes sessions of VMs
// still running at the end of the stream (those sessions have
// Ended=false, modeling "Number of VMs Running").
//
// State machine per VM:
//
//	START  while stopped -> open a session
//	STOP/PAUSE while running -> close session (Ended)
//	RESUME while stopped -> open a session (same config)
//	RESIZE while running -> close session and immediately open a new
//	        one with the new configuration ("allocated memory can even
//	        be changed during the life of the VM", paper §III-B)
//	TERMINATE -> close session (Ended, Terminated)
//	REQUEST -> bookkeeping only
//
// Out-of-protocol events (STOP while stopped, double START) are
// tolerated and ignored, as real clouds emit duplicates.
func ReconstructSessions(events []Event, horizon time.Time) ([]Session, error) {
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].VMID != sorted[j].VMID {
			return sorted[i].VMID < sorted[j].VMID
		}
		return sorted[i].Time.Before(sorted[j].Time)
	})

	var out []Session
	states := map[string]*vmState{}
	order := []string{}

	open := func(st *vmState, e Event) {
		st.running = true
		st.cur = Session{
			VMID: e.VMID, Resource: e.Resource, User: e.User, Project: e.Project,
			InstanceType: e.InstanceType, Cores: e.Cores, MemoryGB: e.MemoryGB,
			DiskGB: e.DiskGB, Start: e.Time,
		}
	}
	closeSession := func(st *vmState, at time.Time, terminated bool) Session {
		st.running = false
		s := st.cur
		s.End = at
		s.Ended = true
		s.Terminated = terminated
		st.seq++
		return s
	}

	for _, e := range sorted {
		st, ok := states[e.VMID]
		if !ok {
			st = &vmState{}
			states[e.VMID] = st
			order = append(order, e.VMID)
		}
		switch e.Type {
		case EvStart, EvResume:
			if st.running {
				continue // duplicate start
			}
			open(st, e)
		case EvStop, EvPause:
			if !st.running {
				continue
			}
			out = append(out, closeSession(st, e.Time, false))
		case EvTerminate:
			if st.running {
				out = append(out, closeSession(st, e.Time, true))
			}
		case EvResize:
			if !st.running {
				continue // config change while stopped takes effect at next start
			}
			out = append(out, closeSession(st, e.Time, false))
			open(st, e)
		case EvRequest:
			// provisioning bookkeeping; no session effect
		}
	}

	// Close still-running sessions at the horizon.
	for _, id := range order {
		st := states[id]
		if st.running {
			s := st.cur
			s.End = horizonEnd(s.Start, horizon)
			s.Ended = false
			st.seq++
			out = append(out, s)
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].VMID != out[j].VMID {
			return out[i].VMID < out[j].VMID
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out, nil
}

// horizonEnd is where the horizon closes a session still running since
// start: at the horizon, or at the start when the horizon precedes it.
func horizonEnd(start, horizon time.Time) time.Time {
	if horizon.After(start) {
		return horizon
	}
	return start
}

// StaleOpenVMs returns, sorted, the VMs of a session-table snapshot
// whose still-running session (ended false) does not end where horizon
// closes it: the only sessions a change of horizon alters.
func StaleOpenVMs(td *warehouse.TableData, horizon time.Time) []string {
	var out []string
	vm, ended := colOf(td, "vm_id"), colOf(td, "ended")
	start, end := colOf(td, "start_time"), colOf(td, "end_time")
	vms, endeds, starts, ends := td.StringCol(vm), td.BoolCol(ended), td.TimeCol(start), td.TimeCol(end)
	dead := td.Tombstones()
	for pos := 0; pos < td.Rows(); pos++ {
		if !dead[pos] && !endeds[pos] && !ends.At(pos).Equal(horizonEnd(starts.At(pos), horizon)) {
			out = append(out, vms.At(pos))
		}
	}
	sort.Strings(out)
	return out
}

func colOf(td *warehouse.TableData, name string) int {
	i, _ := td.ColIndex(name)
	return i
}

// eventFromRow reads one event-table row back into an Event.
func eventFromRow(r warehouse.Row) Event {
	var ts time.Time
	if v, _ := r.Lookup("event_time"); v != nil {
		ts = v.(time.Time)
	}
	return Event{
		VMID: r.String("vm_id"), Resource: r.String("resource"),
		User: r.String("username"), Project: r.String("project"),
		InstanceType: r.String("instance_type"),
		Type:         EventType(r.String("event_type")),
		Time:         ts, Cores: r.Int("cores"),
		MemoryGB: r.Float("memory_gb"), DiskGB: r.Float("disk_gb"),
	}
}

// ReadEvents returns the events of vm that evTab holds, in seq order:
// rows (vm, 0), (vm, 1), … read by primary key up to the first seq the
// table lacks. Their count is the seq of vm's next event (AppendEvent).
func ReadEvents(evTab *warehouse.Table, vm string) []Event {
	var out []Event
	for seq := 0; ; seq++ {
		r, ok := evTab.GetByKey(vm, seq)
		if !ok {
			return out
		}
		out = append(out, eventFromRow(r))
	}
}

// AppendEvent inserts e as the next event of its VM, whose stored events
// are evs (ReadEvents, and the events appended since), and returns evs
// with e appended as the table holds it. An insert that fails takes no
// seq: evs come back as they were, so a VM's seqs stay gapless.
func AppendEvent(evTab *warehouse.Table, evs []Event, e Event) ([]Event, error) {
	if err := evTab.InsertRow(EventRow(e, len(evs))); err != nil {
		return evs, err
	}
	e.Time = e.Time.UTC() // as it reads back: no monotonic clock reading
	return append(evs, e), nil
}

// SyncSessions brings the stored sessions of each VM in events up to
// date at horizon: events[vm] is every event of vm in seq order
// (ReadEvents, then what AppendEvent appended). Sessions are per-VM
// independent, and so is their seq numbering, so each VM is
// reconstructed on its own by ReconstructSessions, giving exactly the
// rows a reconstruction of the whole log would. Session k of a VM is
// upserted under SessionID(vm, k) — one equal to the stored session
// writes and logs nothing — and the stored sessions past the last one,
// from SessionID(vm, n) up to the first the table lacks, are deleted,
// so a VM's stored session seqs stay gapless from 0. VMs are written in
// name order, and every VM is reconstructed before the first write, so
// a failure to reconstruct leaves the session table untouched. Must run
// inside the caller's write transaction, whose record then holds what
// changed.
func SyncSessions(sessTab *warehouse.Table, events map[string][]Event, horizon time.Time) error {
	vms := make([]string, 0, len(events))
	for vm := range events {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	byVM := make([][]Session, len(vms))
	for i, vm := range vms {
		var err error
		if byVM[i], err = ReconstructSessions(events[vm], horizon); err != nil {
			return fmt.Errorf("cloud: sessions of vm %s: %w", vm, err)
		}
	}
	for i, vm := range vms {
		for seq, s := range byVM[i] {
			if err := sessTab.UpsertRow(SessionValues(s, seq)); err != nil {
				return err
			}
		}
		for seq := len(byVM[i]); sessTab.DeleteByKey(SessionID(vm, seq)); seq++ {
		}
	}
	return nil
}
