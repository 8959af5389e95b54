// Package realm defines the shared vocabulary for XDMoD data realms.
// "The metrics collected by XDMoD are assembled into groups called
// realms, based on the type of information they measure" (paper §I-D):
// the HPC Jobs realm, the SUPReMM performance realm, and the new
// Storage and Cloud realms the paper introduces (§III). Each realm
// contributes a fact table, a set of metrics, and a set of dimensions
// for grouping and drill-down.
package realm

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"xdmodfed/internal/warehouse"
)

// Metric describes one chartable measure of a realm: an aggregate
// function over a fact-table column. When WeightColumn is set and Func
// is AggAvg the metric is a weighted average (e.g. "Average Memory
// Reserved Weighted By Wall Hours", paper §III-B footnote).
type Metric struct {
	ID           string
	Name         string
	Unit         string
	Func         warehouse.AggFunc
	Column       string
	WeightColumn string
	Scale        float64 // multiplier applied to the aggregate; 0 means 1 (e.g. 1/3600 to report seconds as hours)
}

// ScaleOr1 returns the metric's scale factor, defaulting to 1.
func (m Metric) ScaleOr1() float64 {
	if m.Scale == 0 {
		return 1
	}
	return m.Scale
}

// Dimension describes one group-by/drill-down axis. Numeric dimensions
// (wall time, job size, VM memory) are pre-binned into configured
// aggregation levels; categorical dimensions group by value.
type Dimension struct {
	ID      string
	Name    string
	Column  string
	Numeric bool
}

// DayKey returns the YYYYMMDD integer key of t (UTC), the day column a
// realm's facts carry.
func DayKey(t time.Time) int64 {
	t = t.UTC()
	return int64(t.Year())*10000 + int64(t.Month())*100 + int64(t.Day())
}

// MonthKey returns the YYYYMM integer key of t (UTC), the month column
// a realm's facts carry.
func MonthKey(t time.Time) int64 {
	t = t.UTC()
	return int64(t.Year())*100 + int64(t.Month())
}

// Info is the whole declaration of one realm: the tables Setup creates,
// the fact table among them that the realm charts and federates, and
// its metrics and dimensions.
type Info struct {
	Name       string               // e.g. "Jobs", "Cloud", "Storage", "SUPReMM"
	Schema     string               // warehouse schema holding the realm's tables
	Tables     []warehouse.TableDef // every table of the realm, in creation order
	FactTable  string               // primary fact table, one of Tables
	TimeColumn string               // fact column used for time bucketing
	Local      bool                 // the facts stay on the instance: nothing federates
	Metrics    []Metric
	Dimensions []Dimension
}

// Federated returns the tables that replicate to a hub, by the one
// federation rule: a realm federates its fact table unless it is Local.
// Its other tables (raw cloud events, allocation awards) stay home
// (paper §II-C5).
func (i Info) Federated() []string {
	if i.Local {
		return nil
	}
	return []string{i.FactTable}
}

// Setup creates the realm's schema and its tables in declaration order,
// returning the fact table. A table that exists with the same layout is
// kept (warehouse.Schema.EnsureTable), so Setup can run on every start.
func Setup(db *warehouse.DB, info Info) (*warehouse.Table, error) {
	if err := info.Validate(); err != nil {
		return nil, err
	}
	s := db.EnsureSchema(info.Schema)
	var fact *warehouse.Table
	for _, def := range info.Tables {
		tab, err := s.EnsureTable(def)
		if err != nil {
			return nil, err
		}
		if def.Name == info.FactTable {
			fact = tab
		}
	}
	return fact, nil
}

// Metric returns the metric with the given ID.
func (i Info) Metric(id string) (Metric, bool) {
	for _, m := range i.Metrics {
		if m.ID == id {
			return m, true
		}
	}
	return Metric{}, false
}

// DimensionIndex returns the index in Dimensions of the dimension with
// the given ID.
func (i Info) DimensionIndex(id string) (int, bool) {
	for n, d := range i.Dimensions {
		if d.ID == id {
			return n, true
		}
	}
	return -1, false
}

// Validate checks the realm description for internal consistency.
func (i Info) Validate() error {
	if i.Name == "" || i.Schema == "" || i.FactTable == "" {
		return fmt.Errorf("realm: info missing name/schema/fact table: %+v", i)
	}
	if i.TimeColumn == "" {
		return fmt.Errorf("realm %s: missing time column", i.Name)
	}
	if !slices.ContainsFunc(i.Tables, func(d warehouse.TableDef) bool { return d.Name == i.FactTable }) {
		return fmt.Errorf("realm %s: fact table %q is not one of its tables", i.Name, i.FactTable)
	}
	ids := map[string]bool{}
	for _, m := range i.Metrics {
		if m.ID == "" || m.Column == "" && m.Func != warehouse.AggCount {
			return fmt.Errorf("realm %s: metric %+v incomplete", i.Name, m)
		}
		if ids[m.ID] {
			return fmt.Errorf("realm %s: duplicate metric id %q", i.Name, m.ID)
		}
		ids[m.ID] = true
	}
	dids := map[string]bool{}
	for _, d := range i.Dimensions {
		if d.ID == "" || d.Column == "" {
			return fmt.Errorf("realm %s: dimension %+v incomplete", i.Name, d)
		}
		if dids[d.ID] {
			return fmt.Errorf("realm %s: duplicate dimension id %q", i.Name, d.ID)
		}
		dids[d.ID] = true
	}
	return nil
}

// Registry holds the realms an instance serves. Instances may enable
// different realm sets (the paper's optional-module model, §I-E).
type Registry struct {
	mu     sync.RWMutex
	realms map[string]Info
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{realms: make(map[string]Info)}
}

// Register adds a realm; duplicate names are rejected.
func (r *Registry) Register(info Info) error {
	if err := info.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.realms[info.Name]; ok {
		return fmt.Errorf("realm: %q already registered", info.Name)
	}
	r.realms[info.Name] = info
	return nil
}

// Get returns the named realm.
func (r *Registry) Get(name string) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.realms[name]
	return i, ok
}

// Names returns the sorted realm names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.realms))
	for n := range r.realms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
