// Package storage implements the Storage realm the paper introduces in
// §III-A: metrics describing compute storage — file counts, logical
// and physical usage, quota thresholds, quota utilization and user
// counts — with drill-down dimensions for filesystem, mountpoint,
// resource type, user and PI. Storage data arrive as JSON documents
// (one usage snapshot per user per filesystem per sample time);
// "installations must only ensure their data validates against our
// provided JSON schema" (§III-A), so ingest validates each document
// before it reaches the warehouse.
package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Warehouse locations for the realm.
const (
	SchemaName = "modw_storage"
	FactTable  = "storage_usage"
)

// Snapshot is one storage usage sample: the state of one user's data
// on one filesystem at one instant. This is the JSON interchange form.
type Snapshot struct {
	Resource      string    `json:"resource"`       // filesystem name, e.g. "isilon-home"
	ResourceType  string    `json:"resource_type"`  // "persistent" or "scratch"
	Mountpoint    string    `json:"mountpoint"`     //
	User          string    `json:"user"`           //
	PI            string    `json:"pi"`             //
	Timestamp     time.Time `json:"dt"`             // sample time
	FileCount     int64     `json:"file_count"`     //
	LogicalBytes  int64     `json:"logical_usage"`  //
	PhysicalBytes int64     `json:"physical_usage"` //
	SoftThreshold int64     `json:"soft_threshold"` // soft quota, bytes (0 = none)
	HardThreshold int64     `json:"hard_threshold"` // hard quota, bytes (0 = none)
}

// QuotaUtilization returns logical usage as a fraction of the soft
// quota ("Logical Quota Utilization"), or 0 when no quota is set.
func (s Snapshot) QuotaUtilization() float64 {
	if s.SoftThreshold <= 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.SoftThreshold)
}

// Validate applies the realm's JSON schema rules.
func (s Snapshot) Validate() error {
	if s.Resource == "" {
		return fmt.Errorf("storage: snapshot missing resource")
	}
	switch s.ResourceType {
	case "persistent", "scratch":
	default:
		return fmt.Errorf("storage: snapshot for %q has invalid resource_type %q (want persistent or scratch)", s.Resource, s.ResourceType)
	}
	if s.Mountpoint == "" {
		return fmt.Errorf("storage: snapshot for %q missing mountpoint", s.Resource)
	}
	if s.User == "" {
		return fmt.Errorf("storage: snapshot for %q missing user", s.Resource)
	}
	if s.Timestamp.IsZero() {
		return fmt.Errorf("storage: snapshot for %q/%q missing timestamp", s.Resource, s.User)
	}
	if s.FileCount < 0 || s.LogicalBytes < 0 || s.PhysicalBytes < 0 {
		return fmt.Errorf("storage: snapshot for %q/%q has negative counters", s.Resource, s.User)
	}
	if s.SoftThreshold < 0 || s.HardThreshold < 0 {
		return fmt.Errorf("storage: snapshot for %q/%q has negative quota", s.Resource, s.User)
	}
	if s.HardThreshold > 0 && s.SoftThreshold > s.HardThreshold {
		return fmt.Errorf("storage: snapshot for %q/%q has soft quota above hard quota", s.Resource, s.User)
	}
	return nil
}

// ParseJSON decodes and validates a JSON array of snapshots, the
// interchange document format provided to centers. All-or-nothing: a
// single invalid snapshot rejects the document, matching schema
// validation semantics.
func ParseJSON(r io.Reader) ([]Snapshot, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var snaps []Snapshot
	if err := dec.Decode(&snaps); err != nil {
		return nil, fmt.Errorf("storage: invalid JSON document: %w", err)
	}
	for i, s := range snaps {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("storage: document record %d: %w", i, err)
		}
	}
	return snaps, nil
}

// WriteJSON encodes snapshots in the interchange format.
func WriteJSON(w io.Writer, snaps []Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}

// Def returns the storage fact table definition.
func Def() warehouse.TableDef {
	return warehouse.TableDef{
		Name: FactTable,
		Columns: []warehouse.Column{
			{Name: "resource", Type: warehouse.TypeString},
			{Name: "resource_type", Type: warehouse.TypeString},
			{Name: "mountpoint", Type: warehouse.TypeString},
			{Name: "username", Type: warehouse.TypeString},
			{Name: "pi", Type: warehouse.TypeString},
			{Name: "dt", Type: warehouse.TypeTime},
			{Name: "file_count", Type: warehouse.TypeInt},
			{Name: "logical_bytes", Type: warehouse.TypeInt},
			{Name: "physical_bytes", Type: warehouse.TypeInt},
			{Name: "soft_threshold", Type: warehouse.TypeInt},
			{Name: "hard_threshold", Type: warehouse.TypeInt},
			{Name: "quota_util", Type: warehouse.TypeFloat},
			{Name: "day_key", Type: warehouse.TypeInt},
			{Name: "month_key", Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{"resource", "username", "day_key"},
	}
}

// Metric and dimension IDs. The paper's initial storage metric set:
// file count; logical and physical usage; hard and soft quota
// thresholds; logical quota utilization; user count.
const (
	MetricFileCount     = "file_count"
	MetricLogicalUsage  = "logical_usage"
	MetricPhysicalUsage = "physical_usage"
	MetricSoftQuota     = "soft_threshold"
	MetricHardQuota     = "hard_threshold"
	MetricQuotaUtil     = "quota_utilization"
	MetricUserCount     = "user_count"

	DimResource     = "resource"
	DimMountpoint   = "mountpoint"
	DimResourceType = "resource_type"
	DimUser         = "person"
	DimPI           = "pi"
)

// RealmInfo describes the Storage realm.
func RealmInfo() realm.Info {
	return realm.Info{
		Name:       "Storage",
		Schema:     SchemaName,
		Tables:     []warehouse.TableDef{Def()},
		FactTable:  FactTable,
		TimeColumn: "dt",
		// Usage metrics use SUM_LAST: within each (user, filesystem)
		// aggregation cell only the most recent snapshot of the period
		// counts, then cells sum — so sub-period sampling (the paper's
		// "sampling frequency" caveat, §III-A) never overcounts.
		Metrics: []realm.Metric{
			{ID: MetricFileCount, Name: "File Count", Unit: "files", Func: warehouse.AggSumLast, Column: "file_count"},
			{ID: MetricLogicalUsage, Name: "Logical Usage", Unit: "bytes", Func: warehouse.AggSumLast, Column: "logical_bytes"},
			{ID: MetricPhysicalUsage, Name: "Physical Usage", Unit: "bytes", Func: warehouse.AggSumLast, Column: "physical_bytes"},
			{ID: MetricSoftQuota, Name: "Soft Quota Threshold", Unit: "bytes", Func: warehouse.AggSumLast, Column: "soft_threshold"},
			{ID: MetricHardQuota, Name: "Hard Quota Threshold", Unit: "bytes", Func: warehouse.AggSumLast, Column: "hard_threshold"},
			{ID: MetricQuotaUtil, Name: "Logical Quota Utilization", Unit: "ratio", Func: warehouse.AggAvg, Column: "quota_util"},
			{ID: MetricUserCount, Name: "User Count", Unit: "users", Func: warehouse.AggCount},
		},
		Dimensions: []realm.Dimension{
			{ID: DimResource, Name: "Resource (Filesystem)", Column: "resource"},
			{ID: DimMountpoint, Name: "Mountpoint", Column: "mountpoint"},
			{ID: DimResourceType, Name: "Resource Type", Column: "resource_type"},
			{ID: DimUser, Name: "System Username", Column: "username"},
			{ID: DimPI, Name: "PI", Column: "pi"},
		},
	}
}

// Key returns the snapshot's storage_usage primary key values: (resource,
// user, day).
func Key(s Snapshot) []any {
	return []any{s.Resource, s.User, realm.DayKey(s.Timestamp)}
}

// FactValues converts a snapshot into a positional storage_usage row
// (Def column order). Snapshots are keyed by (resource, user, day); the
// ingest keeps the later-sampled of two snapshots of one day, whichever
// arrives last, implementing the paper's "sampling frequency" caveat —
// sub-daily samples collapse to the day's latest state.
func FactValues(s Snapshot) []any {
	return []any{
		s.Resource, s.ResourceType, s.Mountpoint, s.User, s.PI,
		s.Timestamp, s.FileCount, s.LogicalBytes, s.PhysicalBytes,
		s.SoftThreshold, s.HardThreshold, s.QuotaUtilization(),
		realm.DayKey(s.Timestamp), realm.MonthKey(s.Timestamp),
	}
}
