// Package config defines the JSON-managed configuration for XDMoD
// instances and federations. The paper specifies that "aggregation
// levels ... are managed by JSON configuration files" (§II-C3) and that
// each instance and the federation hub carry their own configuration;
// this package is that file format plus its validation rules.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Bucket is one aggregation level for a numeric dimension: values in
// [Min, Max) fall into the bucket. Units are dimension-specific (wall
// time buckets are in seconds, job size in cores, memory in GB).
type Bucket struct {
	Label string  `json:"label"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Contains reports whether v lands in the bucket.
func (b Bucket) Contains(v float64) bool { return v >= b.Min && v < b.Max }

// AggregationLevels is a named set of buckets for one numeric
// dimension (e.g. "job_wall_time" or "vm_memory"). Aggregation levels
// "apply only to numeric dimensions, such as job wall time, job size
// (core count), CPU User value, and peak memory usage" (paper §II-C3).
type AggregationLevels struct {
	Dimension string   `json:"dimension"`
	Unit      string   `json:"unit"`
	Buckets   []Bucket `json:"buckets"`
}

// Validate enforces that buckets are well-formed, sorted and
// non-overlapping so every value maps to at most one level.
func (a AggregationLevels) Validate() error {
	if a.Dimension == "" {
		return fmt.Errorf("config: aggregation levels missing dimension name")
	}
	if len(a.Buckets) == 0 {
		return fmt.Errorf("config: aggregation levels for %q have no buckets", a.Dimension)
	}
	for i, b := range a.Buckets {
		if b.Label == "" {
			return fmt.Errorf("config: %s bucket %d has no label", a.Dimension, i)
		}
		if b.Min >= b.Max {
			return fmt.Errorf("config: %s bucket %q has min %g >= max %g", a.Dimension, b.Label, b.Min, b.Max)
		}
		if i > 0 && b.Min < a.Buckets[i-1].Max {
			return fmt.Errorf("config: %s bucket %q overlaps or is out of order with %q",
				a.Dimension, b.Label, a.Buckets[i-1].Label)
		}
	}
	return nil
}

// BucketFor returns the label of the bucket containing v; values
// outside every bucket map to the overflow label "other".
func (a AggregationLevels) BucketFor(v float64) string {
	for _, b := range a.Buckets {
		if b.Contains(v) {
			return b.Label
		}
	}
	return OverflowBucket
}

// OverflowBucket labels values not covered by any configured level.
const OverflowBucket = "other"

// ResourceConfig describes one computing resource monitored by an
// instance: its name, its type and the HPL-derived XD SU conversion
// factor. Whether its data federates is a route's choice
// (HubRoute.ExcludeResources), not the resource's.
type ResourceConfig struct {
	Name     string  `json:"name"`
	Type     string  `json:"type"`                // "hpc", "cloud", "storage"
	SUFactor float64 `json:"su_factor,omitempty"` // XD SUs per CPU hour
}

// HubRoute describes one federation destination for this instance's
// data: where to replicate and what to include. Routing "could ensure
// that potentially sensitive data does not ever get replicated to the
// federation hub" and data "could be replicated to multiple federation
// hubs" (paper §II-C4).
type HubRoute struct {
	HubAddr          string   `json:"hub_addr"`
	Mode             string   `json:"mode"` // "tight" (live) or "loose" (batch)
	IncludeRealms    []string `json:"include_realms,omitempty"`
	ExcludeResources []string `json:"exclude_resources,omitempty"`
}

// Validate checks a route.
func (h HubRoute) Validate() error {
	if h.HubAddr == "" {
		return fmt.Errorf("config: hub route missing hub_addr")
	}
	switch h.Mode {
	case "tight", "loose":
	default:
		return fmt.Errorf("config: hub route %q has invalid mode %q (want tight or loose)", h.HubAddr, h.Mode)
	}
	return nil
}

// QueryCacheConfig tunes the instance's chart query-result cache
// (internal/qcache). The cache is always on; correctness never depends
// on it, because cached results are invalidated by warehouse epoch,
// not by age.
type QueryCacheConfig struct {
	// MaxBytes caps the cache's (approximate) memory footprint.
	// 0 uses the built-in default (64 MiB).
	MaxBytes int64 `json:"max_bytes,omitempty"`
}

// Validate checks the query-cache knobs.
func (q QueryCacheConfig) Validate() error {
	if q.MaxBytes < 0 {
		return fmt.Errorf("config: query_cache max_bytes must not be negative")
	}
	return nil
}

// ReplicationConfig tunes tight replication: its liveness pacing and
// what a satellite ships. The zero value means "defaults": 5s
// heartbeats, raw facts.
type ReplicationConfig struct {
	// HeartbeatInterval paces keep-alive frames on replication
	// connections; a peer silent for 2× this is considered dead. Go
	// duration syntax ("5s"). Empty uses the default (5s).
	HeartbeatInterval string `json:"heartbeat_interval,omitempty"`
	// Mode selects what a satellite's tight routes ship: "facts"
	// replicates raw fact events bit-identically (the reference mode),
	// "pushdown" folds mergeable realms into partial-aggregate deltas
	// on the satellite and ships those instead (unmergeable realms fall
	// back to facts with a startup warning). Empty means "facts".
	Mode string `json:"mode,omitempty"`
	// PushdownFlushInterval paces incremental delta flushes in pushdown
	// mode. Go duration syntax. Empty uses the default (2s).
	PushdownFlushInterval string `json:"pushdown_flush_interval,omitempty"`
}

// Replication knob defaults.
const (
	DefaultHeartbeatInterval     = 5 * time.Second
	DefaultPushdownFlushInterval = 2 * time.Second
)

// parseDuration parses an optional duration knob.
func parseDuration(field, s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("config: invalid %s %q: %w", field, s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("config: %s must be positive, got %q", field, s)
	}
	return d, nil
}

// HeartbeatDuration parses the heartbeat knob.
func (r ReplicationConfig) HeartbeatDuration() (time.Duration, error) {
	return parseDuration("replication heartbeat_interval", r.HeartbeatInterval, DefaultHeartbeatInterval)
}

// PushdownFlushDuration parses the pushdown flush-interval knob.
func (r ReplicationConfig) PushdownFlushDuration() (time.Duration, error) {
	return parseDuration("replication pushdown_flush_interval", r.PushdownFlushInterval, DefaultPushdownFlushInterval)
}

// PushdownEnabled reports whether the replication mode is "pushdown".
func (r ReplicationConfig) PushdownEnabled() bool { return r.Mode == "pushdown" }

// Validate checks the replication knobs.
func (r ReplicationConfig) Validate() error {
	if _, err := r.HeartbeatDuration(); err != nil {
		return err
	}
	switch r.Mode {
	case "", "facts", "pushdown":
	default:
		return fmt.Errorf("config: unknown replication mode %q (want %q or %q)", r.Mode, "facts", "pushdown")
	}
	if _, err := r.PushdownFlushDuration(); err != nil {
		return err
	}
	return nil
}

// DurabilityConfig tunes the satellite's write-ahead log. The zero
// value means "fsync after every batch" — the safest setting.
type DurabilityConfig struct {
	// WALFsync selects when the WAL fsyncs: "always" (every appended
	// batch; default), "interval" (every 100ms; a crash loses at most
	// one interval), or "none" (the OS decides; clean shutdown still
	// flushes).
	WALFsync string `json:"wal_fsync,omitempty"`
}

// Validate checks the durability knobs.
func (d DurabilityConfig) Validate() error {
	switch d.WALFsync {
	case "", "always", "interval", "none":
	default:
		return fmt.Errorf("config: durability wal_fsync must be always, interval or none, got %q", d.WALFsync)
	}
	return nil
}

// AdmissionConfig tunes the REST front door's admission controller
// (internal/admission): layered token-bucket rate limits (per-user,
// per-center, global), a concurrency cap with a bounded FIFO queue,
// load-shedding with Retry-After hints (at least 1s), and stale-chart
// degradation. Admission is opt-in: the zero value leaves the front
// door wide open. With Enabled set, every unset knob resolves to the
// internal/admission defaults; each tier's burst is 2× its rate.
type AdmissionConfig struct {
	// Enabled turns the front-door admission controller on.
	Enabled bool `json:"enabled,omitempty"`

	// GlobalRPS is the process-wide token bucket's rate. 0 uses the
	// default (5000/s); negative disables the tier.
	GlobalRPS float64 `json:"global_rps,omitempty"`
	// CenterRPS is each center's (tenant's) rate. 0 uses the default
	// (1000/s); negative disables the tier.
	CenterRPS float64 `json:"center_rps,omitempty"`
	// UserRPS is each authenticated user's rate. 0 uses the default
	// (100/s); negative disables the tier.
	UserRPS float64 `json:"user_rps,omitempty"`

	// Centers maps usernames to center (tenant) names for the
	// per-center tier. Users not listed are only subject to the user
	// and global tiers.
	Centers map[string]string `json:"centers,omitempty"`

	// MaxConcurrent caps requests executing at once; 0 uses the
	// default (256), negative uncaps (no queue, no concurrency sheds).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue bounds the FIFO wait list; 0 = 4 × MaxConcurrent.
	MaxQueue int `json:"max_queue,omitempty"`
	// QueueTimeout is how long a queued request may wait before it is
	// shed, in Go duration syntax ("2s"). Empty uses the default (2s).
	QueueTimeout string `json:"queue_timeout,omitempty"`
}

// QueueTimeoutDuration parses admission.queue_timeout.
func (a AdmissionConfig) QueueTimeoutDuration() (time.Duration, error) {
	return parseDuration("admission queue_timeout", a.QueueTimeout, 2*time.Second)
}

// Validate checks the admission knobs.
func (a AdmissionConfig) Validate() error {
	if a.MaxQueue < 0 {
		return fmt.Errorf("config: admission max_queue must not be negative")
	}
	if _, err := a.QueueTimeoutDuration(); err != nil {
		return err
	}
	for user, center := range a.Centers {
		if user == "" || center == "" {
			return fmt.Errorf("config: admission centers entries need both a user and a center name")
		}
	}
	return nil
}

// SSOSource names one single-sign-on provider an instance trusts.
type SSOSource struct {
	Name     string `json:"name"`     // e.g. "shibboleth", "globus", "keycloak", "ldap"
	Issuer   string `json:"issuer"`   // identity provider identifier
	Secret   string `json:"secret"`   // shared assertion-signing secret
	Metadata bool   `json:"metadata"` // provider supplies user metadata fields
}

// InstanceConfig is the full configuration of one XDMoD instance.
type InstanceConfig struct {
	Name              string              `json:"name"`
	Version           string              `json:"version"`
	Resources         []ResourceConfig    `json:"resources,omitempty"`
	AggregationLevels []AggregationLevels `json:"aggregation_levels,omitempty"`
	Hubs              []HubRoute          `json:"hubs,omitempty"`
	SSOSources        []SSOSource         `json:"sso_sources,omitempty"`
	// HierarchyFile optionally points at an institutional hierarchy
	// JSON document (see internal/hierarchy) used for roll-up charts.
	HierarchyFile string `json:"hierarchy_file,omitempty"`
	// EnablePprof mounts net/http/pprof profiling handlers under
	// /debug/pprof/ on the instance's REST server.
	EnablePprof bool `json:"enable_pprof,omitempty"`
	// QueryCache sizes the chart query-result cache; the zero value
	// uses the default capacity.
	QueryCache QueryCacheConfig `json:"query_cache,omitempty"`
	// Replication tunes heartbeat/deadline liveness and what a
	// satellite ships; the zero value uses safe defaults.
	Replication ReplicationConfig `json:"replication,omitempty"`
	// Durability tunes the satellite write-ahead log's fsync policy;
	// the zero value fsyncs on every batch.
	Durability DurabilityConfig `json:"durability,omitempty"`
	// Admission configures front-door rate limits, quotas and the
	// bounded admission queue; the zero value disables admission.
	Admission AdmissionConfig `json:"admission,omitempty"`
}

// Validate checks the whole instance configuration.
func (c InstanceConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("config: instance missing name")
	}
	if c.Version == "" {
		return fmt.Errorf("config: instance %q missing version", c.Name)
	}
	seen := map[string]bool{}
	for _, r := range c.Resources {
		if r.Name == "" {
			return fmt.Errorf("config: instance %q has an unnamed resource", c.Name)
		}
		if seen[r.Name] {
			return fmt.Errorf("config: instance %q duplicates resource %q", c.Name, r.Name)
		}
		seen[r.Name] = true
		switch r.Type {
		case "hpc", "cloud", "storage":
		default:
			return fmt.Errorf("config: resource %q has invalid type %q", r.Name, r.Type)
		}
	}
	dims := map[string]bool{}
	for _, a := range c.AggregationLevels {
		if err := a.Validate(); err != nil {
			return err
		}
		if dims[a.Dimension] {
			return fmt.Errorf("config: instance %q configures dimension %q twice", c.Name, a.Dimension)
		}
		dims[a.Dimension] = true
	}
	for _, h := range c.Hubs {
		if err := h.Validate(); err != nil {
			return err
		}
	}
	if err := c.QueryCache.Validate(); err != nil {
		return err
	}
	if err := c.Replication.Validate(); err != nil {
		return err
	}
	if err := c.Durability.Validate(); err != nil {
		return err
	}
	if err := c.Admission.Validate(); err != nil {
		return err
	}
	return nil
}

// Load reads and validates an instance configuration from JSON.
func Load(r io.Reader) (InstanceConfig, error) {
	var c InstanceConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// LoadFile reads and validates an instance configuration file.
func LoadFile(path string) (InstanceConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return InstanceConfig{}, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the configuration as indented JSON.
func (c InstanceConfig) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// SaveFile writes the configuration to a file.
func (c InstanceConfig) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
