package replicate

import (
	"fmt"
	"io"

	"xdmodfed/internal/warehouse"
)

// Local (in-process) replication and loose (dump/ship/load)
// federation. Tight network replication lives in net.go.

// Pump copies binlog events from src (starting after fromLSN) through
// the rewriter into dst, returning the new position. It drains
// whatever is currently in the log without blocking; call repeatedly
// or use a Sender for continuous replication.
func Pump(src *warehouse.DB, dst *warehouse.DB, rw *Rewriter, fromLSN uint64) (uint64, error) {
	pos := fromLSN
	for {
		evs, err := src.Binlog().ReadFrom(pos, 1024)
		if err != nil {
			return pos, err
		}
		if len(evs) == 0 {
			return pos, nil
		}
		out, upTo := rw.ProcessBatch(evs)
		// One write transaction per batch: a single lock acquisition and
		// one columnar-snapshot publish per touched table.
		if n, err := dst.ApplyAll(out); err != nil {
			ev := out[n]
			return pos, fmt.Errorf("replicate: apply %s %s.%s: %w", ev.Kind, ev.Schema, ev.Table, err)
		}
		mPumpEvents.Add(uint64(len(out)))
		pos = upTo
	}
}

// Load batch-loads a loose-federation dump into the hub, landing every
// dumped schema in the instance's hub schema. Tables already present
// are replaced (periodic re-ships supersede earlier ones). It returns
// the names of the tables that were loaded, so the hub can mark the
// affected realms for re-aggregation.
func Load(hub *warehouse.DB, instance string, r io.Reader) ([]string, error) {
	// A dump may contain several satellite schemas; they all collapse
	// into fed_<instance>. RestoreRenamed needs the rename per source
	// schema name, which we cannot know up front — so restore into a
	// scratch DB first, then copy tables across. This also keeps a
	// malformed dump from corrupting the hub.
	scratch := warehouse.OpenWithoutBinlog("loose-load")
	defer scratch.Close()
	if _, err := scratch.Restore(r); err != nil {
		return nil, err
	}
	target := hub.EnsureSchema(HubSchema(instance))
	var loaded []string
	for _, sn := range scratch.Schemas() {
		ss := scratch.Schema(sn)
		for _, tn := range ss.Tables() {
			st := ss.Table(tn)
			if _, err := target.EnsureTable(st.Def()); err != nil {
				return loaded, fmt.Errorf("replicate: loose load %s.%s: %w", HubSchema(instance), tn, err)
			}
			// Bulk-load the table's columnar snapshot: one validated
			// LOAD transaction per table, no row materialization. The
			// scratch DB is discarded after the loop, so sharing its
			// vectors with the hub table is safe.
			cd := st.Data().ColumnData()
			if err := hub.LoadColumns(HubSchema(instance), tn, cd); err != nil {
				return loaded, fmt.Errorf("replicate: loose load %s.%s: %w", HubSchema(instance), tn, err)
			}
			loaded = append(loaded, tn)
		}
	}
	return loaded, nil
}
