package core

import (
	"slices"
	"strings"
	"testing"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/config"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/gateway"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/perf"
	"xdmodfed/internal/realm/storage"
)

// TestRealmCatalogue: every realm is declared once, in its package's
// RealmInfo, and an instance of either role is built from those
// declarations. Each realm schema holds exactly the realm's declared
// tables and each _agg schema the four period tables; the federation
// rule (a realm federates its fact table unless it is local) answers
// FederatedTablesFor and the route filter.
func TestRealmCatalogue(t *testing.T) {
	sat, err := NewInstance(satCfg("s", []string{"r"}, ""))
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewHub(hubCfg("h"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Allocations", "Cloud", "Gateways", "Jobs", "SUPReMM", "Storage"}
	for _, in := range []*Instance{sat, hub.Instance} {
		if got := in.Registry.Names(); !slices.Equal(got, want) {
			t.Fatalf("%s: realms = %v, want %v", in.Config.Name, got, want)
		}
		for _, name := range want {
			info, _ := in.Registry.Get(name)
			var declared []string
			for _, def := range info.Tables {
				declared = append(declared, def.Name)
			}
			slices.Sort(declared)
			if got := in.DB.Schema(info.Schema).Tables(); !slices.Equal(got, declared) {
				t.Errorf("%s: schema %s holds %v, realm %s declares %v", in.Config.Name, info.Schema, got, name, declared)
			}
			var periods []string
			for _, p := range aggregate.Periods() {
				periods = append(periods, aggregate.AggTableName(info.FactTable, p))
			}
			slices.Sort(periods)
			if got := in.DB.Schema(aggregate.AggSchema(info)).Tables(); !slices.Equal(got, periods) {
				t.Errorf("%s: schema %s holds %v, want %v", in.Config.Name, aggregate.AggSchema(info), got, periods)
			}
		}
	}

	// SUPReMM federates only its job summaries (paper §II-C5): the
	// timeseries and scripts stay on the satellite. Allocations
	// federates nothing.
	for name, fact := range map[string]string{
		"Jobs": jobs.FactTable, "Cloud": cloud.SessionTable, "Storage": storage.FactTable,
		"SUPReMM": perf.SummaryTable, "Gateways": gateway.FactTable,
	} {
		if got := FederatedTablesFor(name); !slices.Equal(got, []string{fact}) {
			t.Errorf("FederatedTablesFor(%q) = %v, want [%s]", name, got, fact)
		}
	}
	for _, name := range []string{"Allocations", "Quantum"} {
		if got := FederatedTablesFor(name); got != nil {
			t.Errorf("FederatedTablesFor(%q) = %v, want nil", name, got)
		}
	}
	if info, _ := sat.Registry.Get("Allocations"); !info.Local || info.FactTable != alloc.ChargeTable {
		t.Errorf("Allocations: local=%v fact=%q, want a local realm over %s", info.Local, info.FactTable, alloc.ChargeTable)
	}

	s := &Satellite{Instance: sat}
	for realmName, msg := range map[string]string{"Allocations": "does not federate", "Quantum": "unknown realm"} {
		_, _, err := s.filterFor(config.HubRoute{HubAddr: "h", Mode: "tight", IncludeRealms: []string{"Jobs", realmName}})
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("route naming %s: err = %v, want one saying %q", realmName, err, msg)
		}
	}
	f, _, err := s.filterFor(config.HubRoute{HubAddr: "h", Mode: "tight", IncludeRealms: []string{"Jobs", "SUPReMM"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.IncludeTables) != 2 || !f.IncludeTables[jobs.FactTable] || !f.IncludeTables[perf.SummaryTable] {
		t.Errorf("route filter includes %v, want %s and %s", f.IncludeTables, jobs.FactTable, perf.SummaryTable)
	}
}
