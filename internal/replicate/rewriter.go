// Package replicate implements the database replication layer of
// XDMoD federation — the role Continuent's Tungsten Replicator plays
// in the paper (§II-C1): it "reads binary logs on the XDMoD instance
// databases, copying their tables into new, uniquely named schemas
// (one schema per XDMoD instance) on the XDMoD federation hub's
// database", supporting "renaming the data schema during transfer, and
// selective replication of data from satellite instances".
//
// Two coupling modes are provided (paper §II-C2): tight federation
// streams binlog events live over TCP (net.go); loose federation ships
// database dumps — a satellite's snapshot events through the same
// Rewriter — that the hub batch-loads (internal/core). Both land
// satellite data verbatim in per-instance hub schemas; the hub never
// alters replicated raw data.
package replicate

import (
	"fmt"

	"xdmodfed/internal/warehouse"
)

// HubSchemaPrefix prefixes per-instance schemas on the hub: satellite
// "ccr" lands in hub schema "fed_ccr".
const HubSchemaPrefix = "fed_"

// HubSchema names the hub schema for an instance.
func HubSchema(instance string) string { return HubSchemaPrefix + instance }

// Filter selects which binlog events replicate. The zero Filter passes
// everything.
type Filter struct {
	// IncludeTables, when non-nil, allows only these table names (the
	// paper's initial release replicates only the HPC Jobs realm and
	// excludes user-profile data).
	IncludeTables map[string]bool
	// ExcludeResources, when non-nil, drops row events whose fact row
	// belongs to one of these resources (paper §II-C4: selectively
	// exclude sensitive resources from federation).
	ExcludeResources map[string]bool
}

// resourceColumn names the column ExcludeResources is checked against.
const resourceColumn = "resource"

// Rewriter statefully transforms a satellite's binlog event stream for
// application on a hub: it renames schemas to the instance's hub
// schema and applies the filter. It tracks table definitions from DDL
// events so row-level resource filtering can find the resource column
// in positional rows.
type Rewriter struct {
	instance string
	filter   Filter
	resCol   map[string]int // "schema.table" -> resource column index (-1 none)
}

// NewRewriter creates a rewriter for one satellite instance.
func NewRewriter(instance string, f Filter) *Rewriter {
	return &Rewriter{instance: instance, filter: f, resCol: make(map[string]int)}
}

// Process transforms one event. It returns the rewritten event and
// whether it should be sent; filtered events return false. DDL events
// for filtered tables are dropped; schema DDL is passed (collapsed to
// the single hub schema, which the applier creates idempotently).
func (rw *Rewriter) Process(ev warehouse.Event) (warehouse.Event, bool) {
	key := ev.Schema + "." + ev.Table
	switch ev.Kind {
	case warehouse.EvCreateSchema, warehouse.EvDropSchema:
		// All satellite schemas collapse into one hub schema; emit a
		// create for it (drops are not propagated — the hub retains
		// replicated data as backup, paper §II-E4).
		if ev.Kind == warehouse.EvDropSchema {
			return warehouse.Event{}, false
		}
		ev.Schema = HubSchema(rw.instance)
		return ev, true
	case warehouse.EvCreateTable:
		if ev.Def != nil {
			idx := -1
			for i, c := range ev.Def.Columns {
				if c.Name == resourceColumn {
					idx = i
					break
				}
			}
			rw.resCol[key] = idx
		}
		if !rw.tableAllowed(ev.Table) {
			return warehouse.Event{}, false
		}
		ev.Schema = HubSchema(rw.instance)
		return ev, true
	case warehouse.EvLoad:
		// A bulk load replaces the whole table: the resource filter must
		// inspect the columnar payload, not Row/Old (which are nil).
		if !rw.tableAllowed(ev.Table) {
			return warehouse.Event{}, false
		}
		if rw.filter.ExcludeResources != nil && ev.Cols != nil {
			ev.Cols = rw.filterLoad(ev.Cols)
		}
		ev.Schema = HubSchema(rw.instance)
		return ev, true
	}
	if !rw.tableAllowed(ev.Table) {
		return warehouse.Event{}, false
	}
	if rw.filter.ExcludeResources != nil {
		if idx, ok := rw.resCol[key]; ok && idx >= 0 {
			row := ev.Row
			if row == nil {
				row = ev.Old
			}
			if idx < len(row) {
				if res, ok := row[idx].(string); ok && rw.filter.ExcludeResources[res] {
					return warehouse.Event{}, false
				}
			}
		}
	}
	ev.Schema = HubSchema(rw.instance)
	return ev, true
}

// filterLoad drops excluded-resource rows from a bulk-load payload.
// The input is never mutated (it may be shared with the source binlog):
// when rows must go, a filtered copy is built — its string columns
// keep the input's dictionaries, which neither payload appends to —
// otherwise the payload passes through untouched. The resource column
// is located by name in the payload itself, so reordered upstream
// definitions filter correctly.
func (rw *Rewriter) filterLoad(cd *warehouse.ColumnData) *warehouse.ColumnData {
	ri := -1
	for i, n := range cd.Names {
		if n == resourceColumn {
			ri = i
			break
		}
	}
	if ri < 0 || cd.Cols[ri].Codes == nil {
		return cd
	}
	res := cd.Cols[ri].Strings()
	excluded := make([]bool, len(res.Dict)) // by code
	for c, r := range res.Dict {
		excluded[c] = rw.filter.ExcludeResources[r]
	}
	keep := make([]int, 0, cd.Rows)
	for pos := 0; pos < cd.Rows; pos++ {
		if pos < len(res.Codes) && excluded[res.Codes[pos]] {
			continue
		}
		keep = append(keep, pos)
	}
	if len(keep) == cd.Rows {
		return cd
	}
	out := &warehouse.ColumnData{
		Names: append([]string(nil), cd.Names...),
		Cols:  make([]warehouse.ColumnVector, len(cd.Cols)),
		Rows:  len(keep),
	}
	for i := range cd.Cols {
		src := &cd.Cols[i]
		out.Cols[i] = warehouse.ColumnVector{
			Type:   src.Type,
			Ints:   pickRows(src.Ints, keep),
			Floats: pickRows(src.Floats, keep),
			Codes:  pickRows(src.Codes, keep),
			Dict:   src.Dict,
			Bools:  pickRows(src.Bools, keep),
			Nanos:  pickRows(src.Nanos, keep),
			Nulls:  pickRows(src.Nulls, keep),
		}
	}
	return out
}

// pickRows gathers the kept positions of one vector (nil in, nil out).
func pickRows[T any](src []T, keep []int) []T {
	if src == nil {
		return nil
	}
	out := make([]T, 0, len(keep))
	for _, pos := range keep {
		if pos < len(src) {
			out = append(out, src[pos])
		}
	}
	return out
}

func (rw *Rewriter) tableAllowed(table string) bool {
	if rw.filter.IncludeTables == nil {
		return true
	}
	return rw.filter.IncludeTables[table]
}

// ProcessBatch rewrites a slice of events, returning the survivors and
// the highest input LSN seen (so positions advance past filtered
// events too).
func (rw *Rewriter) ProcessBatch(evs []warehouse.Event) (out []warehouse.Event, upTo uint64) {
	for _, ev := range evs {
		if ev.LSN > upTo {
			upTo = ev.LSN
		}
		if r, ok := rw.Process(ev); ok {
			out = append(out, r)
		}
	}
	return out, upTo
}

// Validate checks filter consistency.
func (f Filter) Validate() error {
	if f.IncludeTables != nil && len(f.IncludeTables) == 0 {
		return fmt.Errorf("replicate: filter includes no tables; nothing would replicate")
	}
	return nil
}
