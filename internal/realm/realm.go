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
	"sort"
	"sync"

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

// Info is the static description of one realm.
type Info struct {
	Name       string // e.g. "Jobs", "Cloud", "Storage", "SUPReMM"
	Schema     string // warehouse schema holding the realm's tables
	FactTable  string // primary fact table
	TimeColumn string // fact column used for time bucketing
	Metrics    []Metric
	Dimensions []Dimension
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
