// Package ingest implements the XDMoD data ingestion pipeline: staging
// records from the shredders (or realm-specific feeds) are normalized
// into warehouse fact tables and folded into the aggregation tables.
// This is the per-instance "Data Ingestion" stage of the paper's
// Figure 3; everything a satellite ingests subsequently replicates to
// its federation hubs via the binlog.
package ingest

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/su"
	"xdmodfed/internal/warehouse"
)

// Stats summarizes one ingestion run.
type Stats struct {
	Parsed   int // records seen in the input
	Ingested int // new fact rows written
	Skipped  int // duplicates of already-ingested facts
	Rejected int // records failing validation or parse
	Errors   []error
}

func (s Stats) String() string {
	return fmt.Sprintf("parsed=%d ingested=%d skipped=%d rejected=%d", s.Parsed, s.Ingested, s.Skipped, s.Rejected)
}

// Pipeline ingests data into one instance's warehouse. Engine is
// optional; when set, the aggregation tables follow every ingest: new
// job and storage facts fold in incrementally, and a write that
// replaces or removes facts — a revised storage day, a cloud session a
// new event changed — recomputes just the aggregation groups it
// touched.
type Pipeline struct {
	DB        *warehouse.DB
	Converter *su.Converter
	Engine    *aggregate.Engine
}

// IngestJobRecords normalizes staging records into the Jobs realm.
// Re-ingesting the same accounting log is idempotent: records whose
// (resource, job id) already exist are skipped.
func (p *Pipeline) IngestJobRecords(recs []shredder.JobRecord) (Stats, error) {
	var st Stats
	_, sp := obs.StartSpan(context.Background(), "ingest.IngestJobRecords")
	defer sp.End()
	defer mBatchSeconds.With("Jobs").ObserveSince(time.Now())
	defer func() { countStats("Jobs", st) }()
	tab, err := p.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		return st, fmt.Errorf("ingest: jobs realm not set up: %w", err)
	}
	// Normalize and validate with no lock held; only well-formed rows
	// enter the write transaction.
	type candidate struct {
		resource string
		jobID    int64
		row      []any
	}
	cands := make([]candidate, 0, len(recs))
	for _, rec := range recs {
		st.Parsed++
		row, err := jobs.FactRowFromRecord(rec, p.Converter)
		if err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
			continue
		}
		cands = append(cands, candidate{rec.Resource, rec.LocalJobID, row})
	}
	// One write transaction for the whole batch: a single lock
	// acquisition and one columnar-snapshot publish regardless of batch
	// size. Duplicate keys — already ingested, or repeated within the
	// batch — are visible to GetByKey inside the transaction.
	var ingested [][]any
	if len(cands) > 0 {
		err := p.DB.Do(func() error {
			for _, c := range cands {
				if _, exists := tab.GetByKey(c.resource, c.jobID); exists {
					st.Skipped++
					continue
				}
				if err := tab.InsertRow(c.row); err != nil {
					st.Rejected++
					st.Errors = append(st.Errors, err)
					continue
				}
				st.Ingested++
				ingested = append(ingested, c.row)
			}
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	if p.Engine != nil && len(ingested) > 0 {
		if _, err := p.Engine.ApplyFactRows(jobs.RealmInfo(), jobs.SchemaName, ingested); err != nil {
			return st, fmt.Errorf("ingest: aggregate jobs: %w", err)
		}
	}
	if st.Ingested > 0 {
		// The ingest's own commits bumped the touched schemas' epochs,
		// invalidating cached charts for exactly the realms written.
		// Mark the binlog with this ingest's trace context, so the
		// replication send and the hub apply join the same trace.
		p.DB.Binlog().NoteTrace(sp.TraceParent())
	}
	return st, nil
}

// IngestJobLog shreds an accounting log in the named format and
// ingests the result.
func (p *Pipeline) IngestJobLog(r io.Reader, format, resource string) (Stats, error) {
	parser, err := shredder.New(format)
	if err != nil {
		return Stats{}, err
	}
	recs, perrs := parser.Parse(r, resource)
	st, err := p.IngestJobRecords(recs)
	for _, pe := range perrs {
		st.Parsed++
		st.Rejected++
		st.Errors = append(st.Errors, pe)
	}
	return st, err
}

// IngestCloudEvents appends raw VM lifecycle events and brings the
// session table up to date in the same write transaction: the sessions
// of every VM the batch names, plus those of every VM whose
// still-running session this horizon closes elsewhere, are
// reconstructed from the VM's own events and diffed against the stored
// ones (cloud.SyncSessions), so only sessions that changed are written
// and logged. The Cloud realm's aggregates then follow the changed
// sessions (see refresh).
func (p *Pipeline) IngestCloudEvents(events []cloud.Event, horizon time.Time) (Stats, error) {
	var st Stats
	_, sp := obs.StartSpan(context.Background(), "ingest.IngestCloudEvents")
	defer sp.End()
	defer mBatchSeconds.With("Cloud").ObserveSince(time.Now())
	defer func() { countStats("Cloud", st) }()
	evTab, err := p.DB.TableIn(cloud.SchemaName, cloud.EventTable)
	if err != nil {
		return st, fmt.Errorf("ingest: cloud realm not set up: %w", err)
	}
	sessTab, err := p.DB.TableIn(cloud.SchemaName, cloud.SessionTable)
	if err != nil {
		return st, fmt.Errorf("ingest: cloud realm not set up: %w", err)
	}
	rows := make([][]any, 0, len(events))
	named := map[string]bool{}
	for _, e := range events {
		st.Parsed++
		if err := e.Validate(); err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
			continue
		}
		rows = append(rows, cloud.EventRow(e))
		named[e.VMID] = true
	}
	var old, written [][]any
	err = p.DB.Do(func() error {
		// Read before this transaction writes: the published snapshot is
		// then exactly the writer state.
		vms := cloud.StaleOpenVMs(sessTab.Data(), horizon)
		for _, vm := range vms {
			named[vm] = true
		}
		if len(named) == 0 {
			return nil
		}
		for _, r := range rows {
			if err := evTab.InsertRow(r); err != nil {
				st.Rejected++
				st.Errors = append(st.Errors, err)
				continue
			}
			st.Ingested++
		}
		vms = vms[:0]
		for vm := range named {
			vms = append(vms, vm)
		}
		sort.Strings(vms)
		var err error
		old, written, err = cloud.SyncSessions(evTab, sessTab, vms, horizon)
		return err
	})
	if err != nil {
		return st, err
	}
	if err := p.refresh(cloud.RealmInfo(), old, written); err != nil {
		return st, fmt.Errorf("ingest: aggregate cloud: %w", err)
	}
	if st.Ingested > 0 {
		p.DB.Binlog().NoteTrace(sp.TraceParent())
	}
	return st, nil
}

// refresh brings a realm's aggregates up to the fact rows one ingest
// wrote (written) and the stored rows those replaced or removed (old).
// When nothing was replaced the write is additive, and the new facts
// fold in like a jobs batch; otherwise exactly the groups the old and
// new rows fall in are recomputed from the realm's facts. Either way
// every group ends bit-identical to a rebuild's.
func (p *Pipeline) refresh(info realm.Info, old, written [][]any) error {
	if p.Engine == nil || len(old)+len(written) == 0 {
		return nil
	}
	if len(old) == 0 {
		_, err := p.Engine.ApplyFactRows(info, info.Schema, written)
		return err
	}
	scope, err := p.Engine.ScopeOf(info, info.Schema, append(old, written...))
	if err != nil {
		return err
	}
	_, err = p.Engine.ReaggregateFrom(info, []aggregate.Source{{Schema: info.Schema}}, scope)
	return err
}

// IngestStorageSnapshots upserts storage usage snapshots. A snapshot
// replaces the stored one of its (resource, user, day) unless that one
// was sampled later — sub-daily samples collapse to the day's latest
// state whatever order they arrive in — and a snapshot that loses is
// counted Skipped and writes nothing. The Storage realm's aggregates
// then follow the rows written (see refresh).
func (p *Pipeline) IngestStorageSnapshots(snaps []storage.Snapshot) (Stats, error) {
	var st Stats
	_, sp := obs.StartSpan(context.Background(), "ingest.IngestStorageSnapshots")
	defer sp.End()
	defer mBatchSeconds.With("Storage").ObserveSince(time.Now())
	defer func() { countStats("Storage", st) }()
	tab, err := p.DB.TableIn(storage.SchemaName, storage.FactTable)
	if err != nil {
		return st, fmt.Errorf("ingest: storage realm not set up: %w", err)
	}
	valid := make([]storage.Snapshot, 0, len(snaps))
	for _, s := range snaps {
		st.Parsed++
		if err := s.Validate(); err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
			continue
		}
		valid = append(valid, s)
	}
	var old, written [][]any
	if len(valid) > 0 {
		err := p.DB.Do(func() error {
			for _, s := range valid {
				var prev []any
				if r, ok := tab.GetByKey(storage.Key(s)...); ok {
					if r.Get("dt").(time.Time).After(s.Timestamp) {
						st.Skipped++
						continue
					}
					prev = r.Values()
				}
				row := storage.FactValues(s)
				if err := tab.UpsertRow(row); err != nil {
					st.Rejected++
					st.Errors = append(st.Errors, err)
					continue
				}
				st.Ingested++
				if prev != nil {
					old = append(old, prev)
				}
				written = append(written, row)
			}
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	if err := p.refresh(storage.RealmInfo(), old, written); err != nil {
		return st, fmt.Errorf("ingest: aggregate storage: %w", err)
	}
	if st.Ingested > 0 {
		p.DB.Binlog().NoteTrace(sp.TraceParent())
	}
	return st, nil
}

// IngestStorageJSON validates and ingests a storage JSON document.
func (p *Pipeline) IngestStorageJSON(r io.Reader) (Stats, error) {
	snaps, err := storage.ParseJSON(r)
	if err != nil {
		return Stats{}, err
	}
	return p.IngestStorageSnapshots(snaps)
}
