package config

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func validInstance() InstanceConfig {
	return InstanceConfig{
		Name:    "ccr",
		Version: "8.0.0",
		Resources: []ResourceConfig{
			{Name: "rush", Type: "hpc", SUFactor: 1.0},
			{Name: "lake-effect", Type: "cloud"},
			{Name: "isilon", Type: "storage"},
		},
		AggregationLevels: []AggregationLevels{InstanceAWallTime()},
		Hubs:              []HubRoute{{HubAddr: "hub:7100", Mode: "tight"}},
	}
}

func TestValidateAcceptsGoodConfig(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*InstanceConfig)
	}{
		{"missing name", func(c *InstanceConfig) { c.Name = "" }},
		{"missing version", func(c *InstanceConfig) { c.Version = "" }},
		{"unnamed resource", func(c *InstanceConfig) { c.Resources[0].Name = "" }},
		{"dup resource", func(c *InstanceConfig) { c.Resources[1].Name = c.Resources[0].Name }},
		{"bad resource type", func(c *InstanceConfig) { c.Resources[0].Type = "quantum" }},
		{"dup dimension", func(c *InstanceConfig) {
			c.AggregationLevels = append(c.AggregationLevels, InstanceAWallTime())
		}},
		{"bad hub mode", func(c *InstanceConfig) { c.Hubs[0].Mode = "snail-mail" }},
		{"missing hub addr", func(c *InstanceConfig) { c.Hubs[0].HubAddr = "" }},
		{"bad admission queue timeout", func(c *InstanceConfig) { c.Admission.QueueTimeout = "soon" }},
		{"negative admission queue timeout", func(c *InstanceConfig) { c.Admission.QueueTimeout = "-1s" }},
		{"negative admission queue", func(c *InstanceConfig) { c.Admission.MaxQueue = -1 }},
		{"anonymous admission center", func(c *InstanceConfig) {
			c.Admission.Centers = map[string]string{"": "ccr"}
		}},
	}
	for _, tc := range cases {
		c := validInstance()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestAggregationLevelsValidate(t *testing.T) {
	bad := []AggregationLevels{
		{Dimension: "", Buckets: []Bucket{{Label: "a", Min: 0, Max: 1}}},
		{Dimension: "d"},
		{Dimension: "d", Buckets: []Bucket{{Label: "", Min: 0, Max: 1}}},
		{Dimension: "d", Buckets: []Bucket{{Label: "a", Min: 1, Max: 1}}},
		{Dimension: "d", Buckets: []Bucket{{Label: "a", Min: 0, Max: 10}, {Label: "b", Min: 5, Max: 20}}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	for _, a := range []AggregationLevels{InstanceAWallTime(), InstanceBWallTime(), HubWallTime(), CloudVMMemory(), DefaultJobSize()} {
		if err := a.Validate(); err != nil {
			t.Errorf("canned levels %q invalid: %v", a.Dimension, err)
		}
	}
}

func TestTableIBuckets(t *testing.T) {
	a, b, hub := InstanceAWallTime(), InstanceBWallTime(), HubWallTime()
	// Representative wall times (seconds) and the Table I levels they land in.
	cases := []struct {
		wall            float64
		inA, inB, inHub string
	}{
		{30, "1-60 seconds", "1-10 hours", "0-60 minutes"},
		{1800, "1-60 minutes", "1-10 hours", "0-60 minutes"},
		{4 * 3600, "1-5 hours", "1-10 hours", "1-5 hours"},
		{8 * 3600, "other", "1-10 hours", "5-10 hours"},
		{15 * 3600, "other", "10-20 hours", "10-20 hours"},
		{40 * 3600, "other", "20-50 hours", "20-50 hours"},
	}
	for _, c := range cases {
		if got := a.BucketFor(c.wall); got != c.inA {
			t.Errorf("A.BucketFor(%g) = %q, want %q", c.wall, got, c.inA)
		}
		if got := b.BucketFor(c.wall); got != c.inB {
			t.Errorf("B.BucketFor(%g) = %q, want %q", c.wall, got, c.inB)
		}
		if got := hub.BucketFor(c.wall); got != c.inHub {
			t.Errorf("Hub.BucketFor(%g) = %q, want %q", c.wall, got, c.inHub)
		}
	}
}

func TestPropertyBucketForMatchesLinearScan(t *testing.T) {
	levels := HubWallTime()
	f := func(v float64) bool {
		if v < 0 {
			v = -v
		}
		got := levels.BucketFor(v)
		want := OverflowBucket
		for _, b := range levels.Buckets {
			if v >= b.Min && v < b.Max {
				want = b.Label
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := validInstance()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name || len(got.Resources) != len(c.Resources) || len(got.AggregationLevels) != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if lv := got.AggregationLevels[0]; lv.Dimension != WallTimeDimension || len(lv.Buckets) != 3 {
		t.Errorf("levels lost in round trip: %+v", lv)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","version":"1","bogus":true}`))
	if err == nil {
		t.Error("unknown fields must be rejected")
	}
	// A config file written for a retired knob fails loudly, naming the
	// key, instead of being silently ignored. The tuning keys that
	// became constants are retired knobs too; the observability and
	// telemetry ones are named by their section, which went as a whole
	// (a hub learns about a member only through replication). So are
	// the keys no code ever read: a resource marked "sensitive"
	// federated all the same, since a route's exclude_resources is what
	// withholds one.
	retired := map[string]string{
		`{"name":"x","version":"1","aggregation":{"disable_incremental":true}}`:                    `"aggregation"`,
		`{"name":"x","version":"1","sharding":{"shards":2}}`:                                       `"sharding"`,
		`{"name":"x","version":"1","storage":{"backend":"disk"}}`:                                  `"storage"`,
		`{"name":"x","version":"1","organization":"University at Buffalo"}`:                        `"organization"`,
		`{"name":"x","version":"1","resources":[{"name":"r","type":"hpc","sensitive":true}]}`:      `"sensitive"`,
		`{"name":"x","version":"1","resources":[{"name":"r","type":"hpc","nodes":16}]}`:            `"nodes"`,
		`{"name":"x","version":"1","resources":[{"name":"r","type":"hpc","cores_per_node":16}]}`:   `"cores_per_node"`,
		`{"name":"x","version":"1","resources":[{"name":"r","type":"hpc","wall_limit_hours":72}]}`: `"wall_limit_hours"`,
		`{"name":"x","version":"1","resources":[{"name":"r","type":"hpc","description":"c"}]}`:     `"description"`,
	}
	for _, key := range []string{
		"admission.center_burst",
		"admission.disable_stale",
		"admission.global_burst",
		"admission.retry_after",
		"admission.session_cache_entries",
		"admission.session_cache_ttl",
		"admission.user_burst",
		"durability.wal_fsync_interval",
		"observability.slow_query_capacity",
		"observability.slow_query_threshold",
		"observability.trace_capacity",
		"query_cache.disabled",
		"query_cache.ttl",
		"replication.max_frame_bytes",
		"replication.quarantine_backoff",
		"replication.quarantine_max_backoff",
		"replication.quarantine_threshold",
		"telemetry.members",
		"telemetry.scrape_interval",
		"telemetry.scrape_timeout",
	} {
		section, leaf, _ := strings.Cut(key, ".")
		named := leaf
		if section == "observability" || section == "telemetry" {
			named = section
		}
		retired[fmt.Sprintf(`{"name":"x","version":"1",%q:{%q:1}}`, section, leaf)] = strconv.Quote(named)
	}
	for file, key := range retired {
		if _, err := Load(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("Load(%s): err = %v, want an error naming %s", file, err, key)
		}
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x"}`))
	if err == nil {
		t.Error("config missing version must be rejected")
	}
	_, err = Load(strings.NewReader(`{not json`))
	if err == nil {
		t.Error("malformed JSON must be rejected")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "xdmod.json")
	c := validInstance()
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != c.Name {
		t.Errorf("got name %q", got.Name)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestAdmissionConfigDurations(t *testing.T) {
	var a AdmissionConfig
	if d, err := a.QueueTimeoutDuration(); err != nil || d.Seconds() != 2 {
		t.Fatalf("zero queue timeout: %v %v", d, err)
	}
	a = AdmissionConfig{QueueTimeout: "500ms"}
	if d, _ := a.QueueTimeoutDuration(); d.Milliseconds() != 500 {
		t.Fatalf("queue timeout: %v", d)
	}
}
