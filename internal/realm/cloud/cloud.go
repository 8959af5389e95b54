// Package cloud implements the Cloud Metrics realm the paper
// introduces in §III-B. Cloud monitoring differs fundamentally from
// HPC job accounting: VMs are long-lived, reconfigurable, and change
// state (started, stopped, paused, resumed, resized, terminated), so
// the realm ingests a raw VM event stream (as produced by an OpenStack
// installation) and reconstructs "sessions" — contiguous intervals
// during which a VM ran with a fixed hardware configuration. Metrics
// (core hours, wall hours, VMs started/ended, average cores per VM)
// are computed over sessions, and the VM-memory dimension is binned
// into the aggregation levels of the paper's Figure 7.
package cloud

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations for the realm.
const (
	SchemaName   = "modw_cloud"
	EventTable   = "event"
	SessionTable = "session_records"
)

// EventType enumerates VM lifecycle events, mirroring the OpenStack
// compute event vocabulary.
type EventType string

// VM lifecycle event types.
const (
	EvRequest   EventType = "REQUEST"
	EvStart     EventType = "START"
	EvStop      EventType = "STOP"
	EvPause     EventType = "PAUSE"
	EvResume    EventType = "RESUME"
	EvResize    EventType = "RESIZE"
	EvTerminate EventType = "TERMINATE"
)

// Valid reports whether t is a known event type.
func (t EventType) Valid() bool {
	switch t {
	case EvRequest, EvStart, EvStop, EvPause, EvResume, EvResize, EvTerminate:
		return true
	}
	return false
}

// Event is one raw VM lifecycle event.
type Event struct {
	VMID         string
	Resource     string
	User         string
	Project      string
	InstanceType string
	Type         EventType
	Time         time.Time
	Cores        int64   // configuration at/after the event
	MemoryGB     float64 //
	DiskGB       float64 //
}

// Validate rejects malformed events.
func (e Event) Validate() error {
	if e.VMID == "" {
		return fmt.Errorf("cloud: event missing vm id")
	}
	if e.Resource == "" {
		return fmt.Errorf("cloud: event for %s missing resource", e.VMID)
	}
	if !e.Type.Valid() {
		return fmt.Errorf("cloud: event for %s has unknown type %q", e.VMID, e.Type)
	}
	if e.Time.IsZero() {
		return fmt.Errorf("cloud: event for %s missing timestamp", e.VMID)
	}
	if e.Cores < 0 || e.MemoryGB < 0 || e.DiskGB < 0 {
		return fmt.Errorf("cloud: event for %s has negative configuration", e.VMID)
	}
	return nil
}

// Session is one contiguous running interval of a VM with a fixed
// configuration. A VM that is stopped/paused and later resumed, or
// resized while running, produces multiple sessions.
type Session struct {
	VMID         string
	Resource     string
	User         string
	Project      string
	InstanceType string
	Cores        int64
	MemoryGB     float64
	DiskGB       float64
	Start        time.Time
	End          time.Time
	Ended        bool // closed by STOP/PAUSE/TERMINATE (vs. still running at horizon)
	Terminated   bool // closed specifically by TERMINATE
}

// Wall returns the session's wall duration.
func (s Session) Wall() time.Duration { return s.End.Sub(s.Start) }

// CoreHours returns cores × wall hours for the session.
func (s Session) CoreHours() float64 { return float64(s.Cores) * s.Wall().Hours() }

// EventDef returns the raw event table definition. An event's key is
// its VM and seq, its ordinal among the VM's events in arrival order: a
// VM's seqs run 0, 1, … with no gap, so its events are read by key, in
// arrival order, up to the first seq the table lacks (ReadEvents).
func EventDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: EventTable,
		Columns: []warehouse.Column{
			{Name: "vm_id", Type: warehouse.TypeString},
			{Name: "seq", Type: warehouse.TypeInt},
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "username", Type: warehouse.TypeString},
			{Name: "project", Type: warehouse.TypeString},
			{Name: "instance_type", Type: warehouse.TypeString},
			{Name: "event_type", Type: warehouse.TypeString},
			{Name: "event_time", Type: warehouse.TypeTime},
			{Name: "cores", Type: warehouse.TypeInt},
			{Name: "memory_gb", Type: warehouse.TypeFloat},
			{Name: "disk_gb", Type: warehouse.TypeFloat},
		},
		PrimaryKey: []string{"vm_id", "seq"},
	}
}

// SessionDef returns the derived session table definition.
func SessionDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: SessionTable,
		Columns: []warehouse.Column{
			{Name: "session_id", Type: warehouse.TypeString},
			{Name: "vm_id", Type: warehouse.TypeString},
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "username", Type: warehouse.TypeString},
			{Name: "project", Type: warehouse.TypeString},
			{Name: "instance_type", Type: warehouse.TypeString},
			{Name: "cores", Type: warehouse.TypeInt},
			{Name: "memory_gb", Type: warehouse.TypeFloat},
			{Name: "disk_gb", Type: warehouse.TypeFloat},
			{Name: "start_time", Type: warehouse.TypeTime},
			{Name: "end_time", Type: warehouse.TypeTime},
			{Name: "wall_hours", Type: warehouse.TypeFloat},
			{Name: "core_hours", Type: warehouse.TypeFloat},
			{Name: "ended", Type: warehouse.TypeBool},
			{Name: "terminated", Type: warehouse.TypeBool},
			{Name: "month_key", Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{"session_id"},
	}
}

// Metric and dimension IDs.
const (
	MetricAvgCoresPerVM  = "cloud_avg_cores_per_vm"
	MetricCoreHours      = "cloud_core_time"
	MetricWallHours      = "cloud_wall_time"
	MetricCoresTotal     = "cloud_num_cores"
	MetricVMsEnded       = "cloud_num_sessions_ended"
	MetricVMsStarted     = "cloud_num_sessions_started"
	MetricVMsRunning     = "cloud_num_sessions_running"
	MetricAvgMemReserved = "cloud_avg_memory_reserved"
	MetricAvgCoreHours   = "cloud_avg_core_hours_per_vm"

	DimResource     = "resource"
	DimProject      = "project"
	DimUser         = "person"
	DimInstanceType = "instance_type"
	DimVMSizeMem    = "vm_memory"
	DimVMSizeCores  = "vm_cores"
)

// RealmInfo describes the Cloud realm. Metrics follow the paper's
// initial-release list (§III-B): average cores per VM; average memory
// reserved weighted by wall hours; core/wall hours total; cores total;
// number of VMs ended/running/started.
func RealmInfo() realm.Info {
	return realm.Info{
		Name:       "Cloud",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{EventDef(), SessionDef()},
		FactTable:  SessionTable,
		TimeColumn: "end_time",
		Metrics: []realm.Metric{
			{ID: MetricAvgCoresPerVM, Name: "Average Cores per VM", Unit: "Core Count", Func: warehouse.AggAvg, Column: "cores"},
			{ID: MetricCoreHours, Name: "Core Hours: Total", Unit: "Core Hour", Func: warehouse.AggSum, Column: "core_hours"},
			{ID: MetricWallHours, Name: "Wall Hours: Total", Unit: "Hour", Func: warehouse.AggSum, Column: "wall_hours"},
			{ID: MetricCoresTotal, Name: "Cores: Total", Unit: "Core Count", Func: warehouse.AggSum, Column: "cores"},
			{ID: MetricVMsEnded, Name: "Number of VMs Ended", Unit: "VMs", Func: warehouse.AggSum, Column: "ended"},
			{ID: MetricVMsStarted, Name: "Number of VMs Started", Unit: "VMs", Func: warehouse.AggCount},
			{ID: MetricAvgMemReserved, Name: "Average Memory Reserved (weighted by wall hours)", Unit: "GB", Func: warehouse.AggAvg, Column: "memory_gb", WeightColumn: "wall_hours"},
			{ID: MetricAvgCoreHours, Name: "Average Core Hours per VM", Unit: "Core Hour", Func: warehouse.AggAvg, Column: "core_hours"},
		},
		Dimensions: []realm.Dimension{
			{ID: DimResource, Name: "Resource", Column: "resource"},
			{ID: DimProject, Name: "Project", Column: "project"},
			{ID: DimUser, Name: "User", Column: "username"},
			{ID: DimInstanceType, Name: "Instance Type", Column: "instance_type"},
			{ID: DimVMSizeMem, Name: "VM Size: Memory", Column: "memory_gb", Numeric: true},
			{ID: DimVMSizeCores, Name: "VM Size: Cores", Column: "cores", Numeric: true},
		},
	}
}

// EventRow converts a VM lifecycle event, its VM's event seq, into a
// positional event row (EventDef column order).
func EventRow(e Event, seq int) []any {
	return []any{
		e.VMID, int64(seq), e.Resource, e.User, e.Project, e.InstanceType,
		string(e.Type), e.Time, e.Cores, e.MemoryGB, e.DiskGB,
	}
}

// SessionID is the key of session seq of a VM: a VM's sessions are
// numbered 0, 1, … in start order.
func SessionID(vm string, seq int) string { return fmt.Sprintf("%s/%d", vm, seq) }

// SessionValues converts a session into a positional session_records
// row (SessionDef column order). seq disambiguates multiple sessions
// of the same VM.
func SessionValues(s Session, seq int) []any {
	return []any{
		SessionID(s.VMID, seq),
		s.VMID, s.Resource, s.User, s.Project, s.InstanceType,
		s.Cores, s.MemoryGB, s.DiskGB,
		s.Start, s.End, s.Wall().Hours(), s.CoreHours(),
		s.Ended, s.Terminated, realm.MonthKey(s.End),
	}
}
