package config

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// configSurface is every configuration key an instance file may set
// (dotted JSON paths; "[]" marks a list element). No daemon flag
// shadows a key: the file is a knob's one source. The list is written
// out by hand on purpose: a change that adds or removes a knob must
// edit it in the same diff, so the option count is visible in review.
var configSurface = []string{
	"admission.center_rps",
	"admission.centers",
	"admission.enabled",
	"admission.global_rps",
	"admission.max_concurrent",
	"admission.max_queue",
	"admission.queue_timeout",
	"admission.user_rps",
	"aggregation_levels[].buckets[].label",
	"aggregation_levels[].buckets[].max",
	"aggregation_levels[].buckets[].min",
	"aggregation_levels[].dimension",
	"aggregation_levels[].unit",
	"durability.wal_fsync",
	"enable_pprof",
	"hierarchy_file",
	"hubs[].exclude_resources",
	"hubs[].hub_addr",
	"hubs[].include_realms",
	"hubs[].mode",
	"name",
	"query_cache.max_bytes",
	"replication.heartbeat_interval",
	"replication.mode",
	"replication.pushdown_flush_interval",
	"resources[].name",
	"resources[].su_factor",
	"resources[].type",
	"sso_sources[].issuer",
	"sso_sources[].metadata",
	"sso_sources[].name",
	"sso_sources[].secret",
	"version",
}

// jsonKeys appends the dotted JSON path of every leaf field reachable
// from t. Structs are walked, list elements are marked "[]", and any
// other type (including maps) is one key.
func jsonKeys(t reflect.Type, prefix string, out []string) []string {
	switch {
	case t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Struct:
		return jsonKeys(t.Elem(), prefix+"[]", out)
	case t.Kind() != reflect.Struct:
		return append(out, prefix)
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" || !f.IsExported() {
			continue
		}
		if prefix != "" {
			name = prefix + "." + name
		}
		out = jsonKeys(f.Type, name, out)
	}
	return out
}

// TestConfigSurface: the configuration keys that exist are exactly
// the ones configSurface lists — the options-count counterpart of the
// metric catalogue check.
func TestConfigSurface(t *testing.T) {
	keys := jsonKeys(reflect.TypeOf(InstanceConfig{}), "", nil)
	sort.Strings(keys)
	if strings.Join(keys, "\n") != strings.Join(configSurface, "\n") {
		t.Errorf("config keys changed; update configSurface in the same change.\n got  %d: %q\n want %d: %q",
			len(keys), keys, len(configSurface), configSurface)
	}
}
