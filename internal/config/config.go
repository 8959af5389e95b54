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
// instance: its hardware shape, scheduler wall-time limit, and the
// HPL-derived XD SU conversion factor.
type ResourceConfig struct {
	Name          string  `json:"name"`
	Type          string  `json:"type"` // "hpc", "cloud", "storage"
	Nodes         int     `json:"nodes,omitempty"`
	CoresPerNode  int     `json:"cores_per_node,omitempty"`
	WallLimitH    float64 `json:"wall_limit_hours,omitempty"`
	SUFactor      float64 `json:"su_factor,omitempty"` // XD SUs per CPU hour
	Description   string  `json:"description,omitempty"`
	SensitiveData bool    `json:"sensitive,omitempty"` // excluded from federation by default
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
// (internal/qcache). The zero value means "enabled with defaults":
// correctness never depends on these knobs, because cached results are
// invalidated by warehouse epoch, not by age.
type QueryCacheConfig struct {
	// Disabled turns the cache off entirely; every chart query then
	// hits the aggregation engine.
	Disabled bool `json:"disabled,omitempty"`
	// MaxBytes caps the cache's (approximate) memory footprint.
	// 0 uses the built-in default (64 MiB).
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// TTL is an optional belt-and-braces age bound on entries, in Go
	// duration syntax ("30s", "5m"). Empty disables the age bound.
	TTL string `json:"ttl,omitempty"`
}

// TTLDuration parses the TTL knob; empty means no TTL.
func (q QueryCacheConfig) TTLDuration() (time.Duration, error) {
	if q.TTL == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q.TTL)
	if err != nil {
		return 0, fmt.Errorf("config: invalid query_cache ttl %q: %w", q.TTL, err)
	}
	return d, nil
}

// Validate checks the query-cache knobs.
func (q QueryCacheConfig) Validate() error {
	if q.MaxBytes < 0 {
		return fmt.Errorf("config: query_cache max_bytes must not be negative")
	}
	if _, err := q.TTLDuration(); err != nil {
		return err
	}
	return nil
}

// ReplicationConfig tunes the liveness and fault handling of tight
// replication. The zero value means "defaults": 5s heartbeats, 64 MiB
// frame cap, quarantine after 3 consecutive apply failures with a 30s
// backoff doubling up to 10m. Correctness never depends on these
// knobs; they bound how fast failures are detected and isolated.
type ReplicationConfig struct {
	// HeartbeatInterval paces keep-alive frames on replication
	// connections; a peer silent for 2× this is considered dead. Go
	// duration syntax ("5s"). Empty uses the default (5s).
	HeartbeatInterval string `json:"heartbeat_interval,omitempty"`
	// MaxFrameBytes bounds a single replication frame on the hub so a
	// corrupt length prefix cannot buffer without bound. 0 uses the
	// default (64 MiB).
	MaxFrameBytes int64 `json:"max_frame_bytes,omitempty"`
	// QuarantineThreshold is how many consecutive batch-apply failures
	// quarantine a member. 0 uses the default (3); negative disables
	// quarantine entirely.
	QuarantineThreshold int `json:"quarantine_threshold,omitempty"`
	// QuarantineBackoff is the first quarantine duration; it doubles
	// per consecutive quarantine. Empty uses the default (30s).
	QuarantineBackoff string `json:"quarantine_backoff,omitempty"`
	// QuarantineMaxBackoff caps the doubling. Empty uses the default
	// (10m).
	QuarantineMaxBackoff string `json:"quarantine_max_backoff,omitempty"`
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
	DefaultQuarantineThreshold   = 3
	DefaultQuarantineBackoff     = 30 * time.Second
	DefaultQuarantineMaxBackoff  = 10 * time.Minute
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

// QuarantineBackoffDuration parses the initial quarantine backoff.
func (r ReplicationConfig) QuarantineBackoffDuration() (time.Duration, error) {
	return parseDuration("replication quarantine_backoff", r.QuarantineBackoff, DefaultQuarantineBackoff)
}

// QuarantineMaxBackoffDuration parses the quarantine backoff cap.
func (r ReplicationConfig) QuarantineMaxBackoffDuration() (time.Duration, error) {
	return parseDuration("replication quarantine_max_backoff", r.QuarantineMaxBackoff, DefaultQuarantineMaxBackoff)
}

// PushdownFlushDuration parses the pushdown flush-interval knob.
func (r ReplicationConfig) PushdownFlushDuration() (time.Duration, error) {
	return parseDuration("replication pushdown_flush_interval", r.PushdownFlushInterval, DefaultPushdownFlushInterval)
}

// PushdownEnabled reports whether the replication mode is "pushdown".
func (r ReplicationConfig) PushdownEnabled() bool { return r.Mode == "pushdown" }

// Threshold resolves the quarantine threshold: default when 0,
// disabled (0) when negative.
func (r ReplicationConfig) Threshold() int {
	if r.QuarantineThreshold == 0 {
		return DefaultQuarantineThreshold
	}
	if r.QuarantineThreshold < 0 {
		return 0
	}
	return r.QuarantineThreshold
}

// Validate checks the replication knobs.
func (r ReplicationConfig) Validate() error {
	if r.MaxFrameBytes < 0 {
		return fmt.Errorf("config: replication max_frame_bytes must not be negative")
	}
	if _, err := r.HeartbeatDuration(); err != nil {
		return err
	}
	if _, err := r.QuarantineBackoffDuration(); err != nil {
		return err
	}
	if _, err := r.QuarantineMaxBackoffDuration(); err != nil {
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
	// batch; default), "interval" (on a timer; a crash loses at most
	// one interval), or "none" (the OS decides; clean shutdown still
	// flushes).
	WALFsync string `json:"wal_fsync,omitempty"`
	// WALFsyncInterval is the timer for the "interval" policy, in Go
	// duration syntax. Empty uses the default (100ms).
	WALFsyncInterval string `json:"wal_fsync_interval,omitempty"`
}

// FsyncIntervalDuration parses the interval knob.
func (d DurabilityConfig) FsyncIntervalDuration() (time.Duration, error) {
	return parseDuration("durability wal_fsync_interval", d.WALFsyncInterval, 100*time.Millisecond)
}

// Validate checks the durability knobs.
func (d DurabilityConfig) Validate() error {
	switch d.WALFsync {
	case "", "always", "interval", "none":
	default:
		return fmt.Errorf("config: durability wal_fsync must be always, interval or none, got %q", d.WALFsync)
	}
	if _, err := d.FsyncIntervalDuration(); err != nil {
		return err
	}
	return nil
}

// StorageConfig selects how the instance's warehouse stores sealed
// column segments (internal/warehouse/store). The zero value means
// "all in memory" — exactly the pre-tiering behavior. With the "disk"
// backend, cold segments are sealed to an mmap-backed on-disk format
// under DataDir and the resident heap footprint of materialized
// segments is bounded by MaxResidentBytes.
type StorageConfig struct {
	// Backend selects the segment store: "memory" (default) keeps every
	// segment on the Go heap; "disk" seals cold segments to DataDir.
	Backend string `json:"backend,omitempty"`
	// DataDir is where the disk backend writes segment files. Required
	// when Backend is "disk"; ignored otherwise.
	DataDir string `json:"data_dir,omitempty"`
	// HotTailRows is how many appended rows a table buffers in its
	// mutable hot tail before sealing them into an immutable segment.
	// 0 uses the backend default (disk: 4096; memory: never seal).
	// Negative disables sealing.
	HotTailRows int `json:"hot_tail_rows,omitempty"`
	// MaxResidentBytes caps the heap bytes of materialized disk-backed
	// segment views; least-recently-used views are dropped above the
	// cap and re-materialized from the mapping on next access. 0 uses
	// the built-in default (256 MiB). Only meaningful for "disk".
	MaxResidentBytes int64 `json:"max_resident_bytes,omitempty"`
}

// DefaultHotTailRows is the hot-tail threshold used by the disk
// backend when hot_tail_rows is 0.
const DefaultHotTailRows = 4096

// Validate checks the storage knobs.
func (s StorageConfig) Validate() error {
	switch s.Backend {
	case "", "memory", "disk":
	default:
		return fmt.Errorf("config: storage backend must be memory or disk, got %q", s.Backend)
	}
	if s.Backend == "disk" && s.DataDir == "" {
		return fmt.Errorf("config: storage backend disk requires data_dir")
	}
	if s.MaxResidentBytes < 0 {
		return fmt.Errorf("config: storage max_resident_bytes must not be negative")
	}
	return nil
}

// TailRows resolves the hot-tail threshold for the configured
// backend: the explicit value when positive, 0 (never seal) when
// negative or when the memory backend is selected, and
// DefaultHotTailRows for the disk backend.
func (s StorageConfig) TailRows() int {
	switch {
	case s.HotTailRows > 0:
		return s.HotTailRows
	case s.HotTailRows < 0:
		return 0
	case s.Backend == "disk":
		return DefaultHotTailRows
	default:
		return 0
	}
}

// ObservabilityConfig tunes the instance's tracing and slow-query
// diagnostics. The zero value means "defaults": 256 retained spans,
// 128 slow-log entries, every query recorded. Correctness never
// depends on these knobs; they bound how much diagnostic history the
// process retains.
type ObservabilityConfig struct {
	// TraceCapacity is how many completed spans the process retains for
	// GET /debug/traces. 0 uses the default (256). Busy hubs stitching
	// federated traces typically raise it.
	TraceCapacity int `json:"trace_capacity,omitempty"`
	// SlowQueryCapacity is how many entries the chart slow-query ring
	// (GET /debug/slowlog) retains. 0 uses the default (128).
	SlowQueryCapacity int `json:"slow_query_capacity,omitempty"`
	// SlowQueryThreshold records only queries at least this slow, in Go
	// duration syntax ("50ms"). Empty records every query.
	SlowQueryThreshold string `json:"slow_query_threshold,omitempty"`
}

// SlowQueryThresholdDuration parses the threshold; empty means 0
// (record everything).
func (o ObservabilityConfig) SlowQueryThresholdDuration() (time.Duration, error) {
	if o.SlowQueryThreshold == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(o.SlowQueryThreshold)
	if err != nil {
		return 0, fmt.Errorf("config: invalid observability slow_query_threshold %q: %w", o.SlowQueryThreshold, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("config: observability slow_query_threshold must not be negative, got %q", o.SlowQueryThreshold)
	}
	return d, nil
}

// Validate checks the observability knobs.
func (o ObservabilityConfig) Validate() error {
	if o.TraceCapacity < 0 {
		return fmt.Errorf("config: observability trace_capacity must not be negative")
	}
	if o.SlowQueryCapacity < 0 {
		return fmt.Errorf("config: observability slow_query_capacity must not be negative")
	}
	if _, err := o.SlowQueryThresholdDuration(); err != nil {
		return err
	}
	return nil
}

// TelemetryMember names one member instance whose /metrics and
// /healthz a hub scrapes.
type TelemetryMember struct {
	Name string `json:"name"`
	Addr string `json:"addr"` // REST address, "host:port" or full URL
}

// TelemetryConfig tunes the hub's telemetry federation: scraping each
// member's /metrics and /healthz and re-exporting them centrally. With
// no members listed, nothing is scraped (targets may still be added at
// runtime, e.g. by the hub daemon's -scrape flag).
type TelemetryConfig struct {
	// ScrapeInterval paces member telemetry scrapes. Empty uses the
	// default (15s).
	ScrapeInterval string `json:"scrape_interval,omitempty"`
	// ScrapeTimeout bounds one member scrape HTTP round trip. Empty
	// uses the default (5s).
	ScrapeTimeout string `json:"scrape_timeout,omitempty"`
	// Members are the instances to scrape.
	Members []TelemetryMember `json:"members,omitempty"`
}

// Telemetry knob defaults.
const (
	DefaultScrapeInterval = 15 * time.Second
	DefaultScrapeTimeout  = 5 * time.Second
)

// ScrapeIntervalDuration parses the scrape-interval knob.
func (t TelemetryConfig) ScrapeIntervalDuration() (time.Duration, error) {
	return parseDuration("telemetry scrape_interval", t.ScrapeInterval, DefaultScrapeInterval)
}

// ScrapeTimeoutDuration parses the scrape-timeout knob.
func (t TelemetryConfig) ScrapeTimeoutDuration() (time.Duration, error) {
	return parseDuration("telemetry scrape_timeout", t.ScrapeTimeout, DefaultScrapeTimeout)
}

// Validate checks the telemetry knobs.
func (t TelemetryConfig) Validate() error {
	if _, err := t.ScrapeIntervalDuration(); err != nil {
		return err
	}
	if _, err := t.ScrapeTimeoutDuration(); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, m := range t.Members {
		if m.Name == "" {
			return fmt.Errorf("config: telemetry member missing name")
		}
		if m.Addr == "" {
			return fmt.Errorf("config: telemetry member %q missing addr", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("config: telemetry member %q listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// AdmissionConfig tunes the REST front door's admission controller
// (internal/admission): layered token-bucket rate limits (per-user,
// per-center, global), a concurrency cap with a bounded FIFO queue,
// load-shedding with Retry-After hints, and stale-chart degradation.
// Admission is opt-in: the zero value leaves the front door wide open
// (pre-admission behavior). With Enabled set, every unset knob
// resolves to the internal/admission defaults.
type AdmissionConfig struct {
	// Enabled turns the front-door admission controller on.
	Enabled bool `json:"enabled,omitempty"`

	// GlobalRPS / GlobalBurst shape the process-wide token bucket.
	// 0 uses the default (5000/s, burst 2×); negative disables the tier.
	GlobalRPS   float64 `json:"global_rps,omitempty"`
	GlobalBurst float64 `json:"global_burst,omitempty"`
	// CenterRPS / CenterBurst shape each center's (tenant's) bucket.
	// 0 uses the default (1000/s); negative disables the tier.
	CenterRPS   float64 `json:"center_rps,omitempty"`
	CenterBurst float64 `json:"center_burst,omitempty"`
	// UserRPS / UserBurst shape each authenticated user's bucket.
	// 0 uses the default (100/s); negative disables the tier.
	UserRPS   float64 `json:"user_rps,omitempty"`
	UserBurst float64 `json:"user_burst,omitempty"`

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
	// RetryAfter floors the Retry-After hint carried by shed
	// responses. Empty uses the default (1s).
	RetryAfter string `json:"retry_after,omitempty"`

	// DisableStale turns off serving an epoch-stale cached chart
	// (tagged Warning: 110) when the request would otherwise be shed.
	DisableStale bool `json:"disable_stale,omitempty"`

	// SessionCacheEntries bounds the verified bearer-token cache;
	// 0 uses the default (4096), negative disables the cache.
	SessionCacheEntries int `json:"session_cache_entries,omitempty"`
	// SessionCacheTTL is how long a verified token stays memoized.
	// Empty uses the default (1m).
	SessionCacheTTL string `json:"session_cache_ttl,omitempty"`
}

// QueueTimeoutDuration parses the queue-timeout knob.
func (a AdmissionConfig) QueueTimeoutDuration() (time.Duration, error) {
	return parseDuration("admission queue_timeout", a.QueueTimeout, 2*time.Second)
}

// RetryAfterDuration parses the retry-after floor.
func (a AdmissionConfig) RetryAfterDuration() (time.Duration, error) {
	return parseDuration("admission retry_after", a.RetryAfter, time.Second)
}

// SessionCacheTTLDuration parses the session-cache TTL knob.
func (a AdmissionConfig) SessionCacheTTLDuration() (time.Duration, error) {
	return parseDuration("admission session_cache_ttl", a.SessionCacheTTL, time.Minute)
}

// Validate checks the admission knobs.
func (a AdmissionConfig) Validate() error {
	if a.MaxQueue < 0 {
		return fmt.Errorf("config: admission max_queue must not be negative")
	}
	if _, err := a.QueueTimeoutDuration(); err != nil {
		return err
	}
	if _, err := a.RetryAfterDuration(); err != nil {
		return err
	}
	if _, err := a.SessionCacheTTLDuration(); err != nil {
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
	Organization      string              `json:"organization,omitempty"`
	IsHub             bool                `json:"is_hub,omitempty"`
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
	// QueryCache tunes the chart query-result cache; the zero value
	// enables it with defaults.
	QueryCache QueryCacheConfig `json:"query_cache,omitempty"`
	// Replication tunes heartbeat/deadline liveness and the hub's
	// member quarantine; the zero value uses safe defaults.
	Replication ReplicationConfig `json:"replication,omitempty"`
	// Durability tunes the satellite write-ahead log's fsync policy;
	// the zero value fsyncs on every batch.
	Durability DurabilityConfig `json:"durability,omitempty"`
	// Storage selects the warehouse segment-store backend; the zero
	// value keeps every segment in memory.
	Storage StorageConfig `json:"storage,omitempty"`
	// Observability tunes span retention and the chart slow-query log;
	// the zero value uses safe defaults.
	Observability ObservabilityConfig `json:"observability,omitempty"`
	// Telemetry configures hub-side scraping of member /metrics and
	// /healthz; the zero value scrapes nothing.
	Telemetry TelemetryConfig `json:"telemetry,omitempty"`
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
	if err := c.Storage.Validate(); err != nil {
		return err
	}
	if err := c.Observability.Validate(); err != nil {
		return err
	}
	if err := c.Telemetry.Validate(); err != nil {
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
