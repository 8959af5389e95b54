// Package ingest implements the XDMoD data ingestion pipeline: staging
// records from the shredders (or realm-specific feeds) are normalized
// into warehouse fact tables, each batch as one write through
// aggregate.Engine.Write, the one path by which a committed write
// reaches the aggregation tables on a satellite and a hub alike. This
// is the per-instance "Data Ingestion" stage of the paper's Figure 3;
// everything a satellite ingests subsequently replicates to its
// federation hubs via the binlog.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/gateway"
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
	Skipped  int // duplicates of already-ingested facts, and rows equal to the stored ones, which write nothing
	Rejected int // records failing validation or parse
	Errors   []error
}

func (s Stats) String() string {
	return fmt.Sprintf("parsed=%d ingested=%d skipped=%d rejected=%d", s.Parsed, s.Ingested, s.Skipped, s.Rejected)
}

// Pipeline ingests data into one instance's warehouse; it is the one
// writer of realm facts. Every write goes through write, so the
// aggregation tables follow it (aggregate.Engine.Write): new facts fold
// in incrementally, and a write that replaces or removes facts — a
// revised storage day, a cloud session a new event changed, a
// re-attributed gateway job — recomputes just the aggregation groups it
// touched.
type Pipeline struct {
	DB        *warehouse.DB
	Converter *su.Converter
	Engine    *aggregate.Engine
}

// write is the one way the pipeline changes the named realm's facts:
// fn runs as one write transaction through aggregate.Engine.Write,
// which holds the realm's mutex throughout and brings its aggregates up
// to what the transaction wrote — also when fn fails, since what it
// wrote before failing stays written. When the transaction changed
// anything write marks the binlog with the batch's trace context, so
// the replication send and the hub apply join the same trace. fn gets
// the realm's fact table, and write returns the change to it: the
// realm is the one the engine set up (aggregate.Engine.Realm). The
// commits bump the touched schemas' epochs, invalidating cached charts
// of exactly the realms written.
func (p *Pipeline) write(name string, sp *obs.Span, fn func(fact *warehouse.Table) error) (warehouse.Change, error) {
	info, _ := p.Engine.Realm(name) // the zero Info, which names no table, when the engine lacks it
	fact, err := p.DB.TableIn(info.Schema, info.FactTable)
	if err != nil {
		return warehouse.Change{}, fmt.Errorf("ingest: %s realm not set up: %w", name, err)
	}
	rec, err := p.Engine.Write([]string{name}, func() error { return fn(fact) })
	if len(rec) > 0 {
		p.DB.Binlog().NoteTrace(sp.TraceParent())
	}
	return rec.Of(info.Schema, info.FactTable), err
}

// countUpserts splits tried upserts into the rows c wrote (Ingested)
// and the rest, which equalled the stored rows and wrote nothing
// (Skipped).
func countUpserts(st *Stats, c warehouse.Change, tried int) {
	st.Ingested += len(c.Inserted)
	st.Skipped += tried - len(c.Inserted)
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
	// Normalize and validate with no lock held; only well-formed rows
	// enter the write transaction, as one typed columnar batch.
	batch := jobs.NewBatch(len(recs))
	for _, rec := range recs {
		st.Parsed++
		if err := batch.Add(rec, p.Converter); err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
		}
	}
	// One write transaction for the whole batch: a single lock
	// acquisition and one columnar-snapshot publish regardless of batch
	// size. A key already ingested, or repeated within the batch, is
	// skipped by the same probe that claims a new one.
	_, err := p.write("Jobs", sp, func(tab *warehouse.Table) error {
		skipped, err := tab.InsertColumns(batch.Columns())
		if err != nil {
			return err
		}
		st.Skipped += skipped
		st.Ingested += batch.Len() - skipped
		return nil
	})
	return st, err
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
// session table up to date in the same write transaction. Every VM the
// batch names, and every VM whose still-running session this horizon
// closes elsewhere, has its stored events read once, by key
// (cloud.ReadEvents); each new event is appended as its VM's next seq
// (cloud.AppendEvent), and each VM's sessions are reconstructed from
// its events and upserted over the stored ones (cloud.SyncSessions). A
// session that did not change writes nothing, so only sessions that
// changed are written and logged. The Cloud realm's aggregates then
// follow the changed sessions (see write).
func (p *Pipeline) IngestCloudEvents(events []cloud.Event, horizon time.Time) (Stats, error) {
	var st Stats
	_, sp := obs.StartSpan(context.Background(), "ingest.IngestCloudEvents")
	defer sp.End()
	defer mBatchSeconds.With("Cloud").ObserveSince(time.Now())
	defer func() { countStats("Cloud", st) }()
	evTab, err := p.DB.TableIn(cloud.SchemaName, cloud.EventTable)
	if err != nil {
		return st, fmt.Errorf("ingest: Cloud realm not set up: %w", err)
	}
	valid := make([]cloud.Event, 0, len(events))
	for _, e := range events {
		st.Parsed++
		if err := e.Validate(); err != nil {
			st.Rejected++
			st.Errors = append(st.Errors, err)
			continue
		}
		valid = append(valid, e)
	}
	_, err = p.write("Cloud", sp, func(sessTab *warehouse.Table) error {
		// Read before this transaction writes: the published snapshot is
		// then exactly the writer state.
		byVM := map[string][]cloud.Event{}
		for _, vm := range cloud.StaleOpenVMs(sessTab.Data(), horizon) {
			byVM[vm] = nil
		}
		for _, e := range valid {
			byVM[e.VMID] = nil
		}
		if len(byVM) == 0 {
			return nil
		}
		for vm := range byVM {
			byVM[vm] = cloud.ReadEvents(evTab, vm)
		}
		for _, e := range valid {
			var err error
			if byVM[e.VMID], err = cloud.AppendEvent(evTab, byVM[e.VMID], e); err != nil {
				st.Rejected++
				st.Errors = append(st.Errors, err)
				continue
			}
			st.Ingested++
		}
		return cloud.SyncSessions(sessTab, byVM, horizon)
	})
	return st, err
}

// IngestStorageSnapshots upserts storage usage snapshots. A snapshot
// replaces the stored one of its (resource, user, day) unless that one
// was sampled later — sub-daily samples collapse to the day's latest
// state whatever order they arrive in — and a snapshot that loses, or
// equals the stored one, is counted Skipped and writes nothing. The Storage realm's aggregates
// then follow the rows written (see write).
func (p *Pipeline) IngestStorageSnapshots(snaps []storage.Snapshot) (Stats, error) {
	var st Stats
	_, sp := obs.StartSpan(context.Background(), "ingest.IngestStorageSnapshots")
	defer sp.End()
	defer mBatchSeconds.With("Storage").ObserveSince(time.Now())
	defer func() { countStats("Storage", st) }()
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
	tried := 0
	c, err := p.write("Storage", sp, func(tab *warehouse.Table) error {
		for _, s := range valid {
			if r, ok := tab.GetByKey(storage.Key(s)...); ok && r.Get("dt").(time.Time).After(s.Timestamp) {
				st.Skipped++
				continue
			}
			if err := tab.UpsertRow(storage.FactValues(s)); err != nil {
				st.Rejected++
				st.Errors = append(st.Errors, err)
				continue
			}
			tried++
		}
		return nil
	})
	countUpserts(&st, c, tried)
	return st, err
}

// IngestStorageJSON validates and ingests a storage JSON document.
func (p *Pipeline) IngestStorageJSON(r io.Reader) (Stats, error) {
	snaps, err := storage.ParseJSON(r)
	if err != nil {
		return Stats{}, err
	}
	return p.IngestStorageSnapshots(snaps)
}

// AttributeGatewayJobs records gateway submissions as Gateways facts
// (gateway.FactValues), upserted by job identity. The batch is all or
// nothing: one invalid submission rejects it before anything is
// written. A submission whose row equals the stored one is Skipped.
// Returns the submissions whose job the Jobs realm holds.
func (p *Pipeline) AttributeGatewayJobs(subs []gateway.Submission) (st Stats, matched int, err error) {
	_, sp := obs.StartSpan(context.Background(), "ingest.AttributeGatewayJobs")
	defer sp.End()
	defer mBatchSeconds.With("Gateways").ObserveSince(time.Now())
	defer func() { countStats("Gateways", st) }()
	jobTab, err := p.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		return st, 0, fmt.Errorf("ingest: Gateways realm needs the Jobs realm: %w", err)
	}
	st.Parsed = len(subs)
	for _, s := range subs {
		if err := s.Validate(); err != nil {
			st.Rejected = len(subs)
			return st, 0, err
		}
	}
	tried := 0
	c, err := p.write("Gateways", sp, func(tab *warehouse.Table) error {
		for _, s := range subs {
			row, found := gateway.FactValues(jobTab, s)
			if found {
				matched++
			}
			if err := tab.UpsertRow(row); err != nil {
				return err
			}
			tried++
		}
		return nil
	})
	countUpserts(&st, c, tried)
	return st, matched, err
}

// ChargeAllocations charges every job the Jobs realm holds to the
// allocation whose project and award window it falls in
// (alloc.Charges), upserting one charge per job. A charge equal to the
// stored one is Skipped, so a re-run that changes nothing writes
// nothing. Parsed counts the jobs charged, written or not.
func (p *Pipeline) ChargeAllocations() (st Stats, err error) {
	_, sp := obs.StartSpan(context.Background(), "ingest.ChargeAllocations")
	defer sp.End()
	defer mBatchSeconds.With("Allocations").ObserveSince(time.Now())
	defer func() { countStats("Allocations", st) }()
	awardTab, err1 := p.DB.TableIn(alloc.SchemaName, alloc.AwardTable)
	jobTab, err2 := p.DB.TableIn(jobs.SchemaName, jobs.FactTable)
	if err := errors.Join(err1, err2); err != nil {
		return st, fmt.Errorf("ingest: Allocations realm not set up: %w", err)
	}
	tried := 0
	c, err := p.write("Allocations", sp, func(chargeTab *warehouse.Table) error {
		for _, row := range alloc.Charges(awardTab, jobTab) {
			st.Parsed++
			if err := chargeTab.UpsertRow(row); err != nil {
				return err
			}
			tried++
		}
		return nil
	})
	countUpserts(&st, c, tried)
	return st, err
}
