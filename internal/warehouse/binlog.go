package warehouse

import (
	"context"
	"encoding/gob"
	"fmt"
	"sync"
	"time"
)

// EventKind enumerates binlog event kinds.
type EventKind int

// Binlog event kinds. DDL events (schema/table creation, truncation)
// are logged too so a replication applier can recreate structure on the
// hub without out-of-band coordination.
const (
	EvInsert EventKind = iota + 1
	EvUpdate
	EvDelete
	EvTruncate
	EvCreateSchema
	EvCreateTable
	EvDropSchema
	// EvLoad is a bulk load: the event's Cols payload atomically
	// replaces the table's entire contents (truncate + refill in one
	// event). Loose-dump batch loads and backup restores log one
	// EvLoad instead of per-row events.
	EvLoad
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case EvInsert:
		return "INSERT"
	case EvUpdate:
		return "UPDATE"
	case EvDelete:
		return "DELETE"
	case EvTruncate:
		return "TRUNCATE"
	case EvCreateSchema:
		return "CREATE_SCHEMA"
	case EvCreateTable:
		return "CREATE_TABLE"
	case EvDropSchema:
		return "DROP_SCHEMA"
	case EvLoad:
		return "LOAD"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one binlog entry: a single row mutation or DDL statement.
// LSN (log sequence number) is assigned on append and is strictly
// increasing from 1.
//
// Delta provenance (aggregation pushdown): a replication sender in
// pushdown mode does not ship a pushdown realm's fact events — it
// folds them into partial-aggregate deltas whose CoveredLSN records
// the binlog position the fold has consumed through. The LSN is the
// shared clock between the two representations: a delta with
// CoveredLSN c supersedes every fact event with LSN <= c for its
// realm, and a snapshot re-fold captures the table data and the
// binlog head atomically so later events are folded exactly once.
// The bins themselves are never events: on either end they live in
// derived tables (TableDef.Derived), which log nothing.
type Event struct {
	LSN    uint64
	Time   time.Time
	Kind   EventKind
	Schema string
	Table  string
	Row    []any       // new values (insert/update)
	Old    []any       // previous values (delete: how the applier finds the row)
	Def    *TableDef   // table definition (create table)
	Cols   *ColumnData // full-table columnar payload (load)
}

func init() {
	// Register the concrete types that travel inside []any cells so the
	// binlog and snapshots can cross gob boundaries (loose federation
	// dumps, tight federation streams).
	gob.Register(time.Time{})
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}

// Binlog is an in-memory, append-only ordered log of events with
// support for blocking tails. Events below the low-water mark (set by
// Trim) are discarded; readers that fall behind a trim receive
// ErrPositionTrimmed.
type Binlog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	first  uint64      // LSN of events[0]; next LSN is first+len(events)
	notes  []traceNote // recent trace-context marks, oldest first
}

// traceNote associates a trace context (wire-form traceparent) with
// the binlog position it produced, so the replication sender can
// propagate the trace of the ingest that committed a batch's events.
type traceNote struct {
	lsn uint64
	tp  string
}

// maxTraceNotes bounds retained trace marks; replication consumes
// them within one batch interval, so a small window suffices.
const maxTraceNotes = 64

// ErrPositionTrimmed reports a read from a position older than the log
// retains.
var ErrPositionTrimmed = fmt.Errorf("warehouse: binlog position has been trimmed")

// NewBinlog creates an empty binlog whose first event will have LSN 1.
func NewBinlog() *Binlog {
	b := &Binlog{first: 1}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Append adds an event, assigns its LSN, and wakes blocked readers.
func (b *Binlog) Append(ev Event) uint64 {
	mBinlogEvents.Inc()
	b.mu.Lock()
	defer b.mu.Unlock()
	ev.LSN = b.first + uint64(len(b.events))
	if ev.Time.IsZero() {
		ev.Time = time.Now().UTC()
	}
	b.events = append(b.events, ev)
	b.cond.Broadcast()
	return ev.LSN
}

// Last returns the LSN of the most recent event (0 when empty).
func (b *Binlog) Last() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first + uint64(len(b.events)) - 1
}

// Len returns the number of retained events.
func (b *Binlog) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// ReadFrom returns up to max events with LSN > pos without blocking.
func (b *Binlog) ReadFrom(pos uint64, max int) ([]Event, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readLocked(pos, max)
}

func (b *Binlog) readLocked(pos uint64, max int) ([]Event, error) {
	if pos+1 < b.first {
		return nil, ErrPositionTrimmed
	}
	start := int(pos + 1 - b.first)
	if start >= len(b.events) {
		return nil, nil
	}
	end := len(b.events)
	if max > 0 && start+max < end {
		end = start + max
	}
	out := make([]Event, end-start)
	copy(out, b.events[start:end])
	return out, nil
}

// Wait blocks until events beyond pos exist (returning up to max of
// them) or the context is cancelled.
func (b *Binlog) Wait(ctx context.Context, pos uint64, max int) ([]Event, error) {
	done := make(chan struct{})
	defer close(done)
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		evs, err := b.readLocked(pos, max)
		if err != nil || len(evs) > 0 {
			return evs, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		b.cond.Wait()
	}
}

// NoteTrace marks the current end of the log with a trace context, so
// the events appended up to here can be attributed to the operation
// (e.g. an ingest commit) that produced them. Safe on a nil binlog
// (stores opened without one); an empty context is ignored.
func (b *Binlog) NoteTrace(tp string) {
	if b == nil || tp == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	last := b.first + uint64(len(b.events)) - 1
	if last == 0 {
		return // nothing appended yet; nothing to attribute
	}
	if n := len(b.notes); n > 0 && b.notes[n-1].lsn == last {
		b.notes[n-1].tp = tp // newest mark for a position wins
		return
	}
	b.notes = append(b.notes, traceNote{lsn: last, tp: tp})
	if len(b.notes) > maxTraceNotes {
		b.notes = append(b.notes[:0], b.notes[len(b.notes)-maxTraceNotes:]...)
	}
}

// TraceBetween returns the newest trace context marked at a position
// in (from, upTo], or "" when none is retained — the sender attaches
// it to the replication batch covering that LSN range.
func (b *Binlog) TraceBetween(from, upTo uint64) string {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := len(b.notes) - 1; i >= 0; i-- {
		if n := b.notes[i]; n.lsn > from && n.lsn <= upTo {
			return n.tp
		}
	}
	return ""
}

// Trim discards events with LSN <= upTo, freeing memory once all
// replicas have acknowledged past that position.
func (b *Binlog) Trim(upTo uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if upTo+1 <= b.first {
		return
	}
	n := int(upTo + 1 - b.first)
	if n > len(b.events) {
		n = len(b.events)
	}
	b.events = append([]Event(nil), b.events[n:]...)
	b.first += uint64(n)
	mBinlogTrims.Add(uint64(n))
}
