package warehouse

import (
	"bytes"
	"context"
	"fmt"
	"sort"
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

// Binlog is an in-memory, append-only ordered log of events with
// support for blocking tails. It keeps its events coded, not boxed: a
// commit's events are coded once, as AppendEvents codes them, into
// blocks of at most maxBlockEvents, which the WAL writer copies to disk
// as they are and readers decode. A write transaction's row events are
// coded straight from its tables' vectors (appendLogged). Events below
// the low-water mark (set by Trim) are discarded; readers that fall
// behind a trim receive ErrPositionTrimmed.
type Binlog struct {
	mu   sync.Mutex
	cond *sync.Cond
	// blocks are the retained blocks in LSN order. An append adds an
	// element and never changes one, and Trim installs a new slice, so
	// a reader may keep a sub-slice after it lets go of mu.
	blocks  []block
	first   uint64           // LSN of the first retained event
	next    uint64           // LSN of the next appended event
	scratch []byte           // coding buffer, reused; blocks hold exact-size copies
	notes   []traceNote      // recent trace-context marks, oldest first
	clock   func() time.Time // the commit time's source: time.Now, or a test's fixed clock
}

// maxBlockEvents caps the events of one block. It is the replication
// sender's default batch, so a sender keeping up reads a block at a
// time.
const maxBlockEvents = 512

// block is a run of one commit's consecutive events: one
// self-contained AppendEvents buffer, clipped to its size and never
// modified once appended.
type block struct {
	first uint64 // LSN of its first event
	n     int    // number of events
	buf   []byte
}

// last returns the LSN of the block's last event.
func (k *block) last() uint64 { return k.first + uint64(k.n) - 1 }

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
	b := &Binlog{first: 1, next: 1, clock: time.Now}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// appendCommit appends the n events of one commit in blocks of at most
// maxBlockEvents, and wakes blocked readers once the whole commit is
// visible. code appends one block's coding to dst: events [i, j) of
// the commit, numbered from LSN first, at the commit time now (for an
// event without a time of its own), self-contained as AppendEvents
// codes them.
func (b *Binlog) appendCommit(n int, code func(dst []byte, i, j int, first uint64, now time.Time) []byte) {
	if n == 0 {
		return
	}
	now := b.clock().UTC()
	mBinlogEvents.Add(uint64(n))
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < n; {
		j := min(n, i+maxBlockEvents)
		b.scratch = code(b.scratch[:0], i, j, b.next, now)
		b.blocks = append(b.blocks, block{first: b.next, n: j - i, buf: bytes.Clone(b.scratch)})
		b.next += uint64(j - i)
		i = j
	}
	if cap(b.scratch) > 1<<20 {
		b.scratch = nil // a LOAD's buffer: do not keep it
	}
	b.cond.Broadcast()
}

// Last returns the LSN of the most recent event (0 when empty).
func (b *Binlog) Last() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next - 1
}

// Len returns the number of retained events.
func (b *Binlog) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.next - b.first)
}

// ReadFrom returns events with LSN > pos without blocking: every
// retained one when max <= 0, and otherwise whole blocks while they fit
// in max events — the rest of the block holding pos first, then the
// blocks after it — or, when that first block alone holds more, its
// first max events. A reader that passes back the last LSN it got thus
// starts each later read on a block boundary, and decodes no event it
// does not return.
func (b *Binlog) ReadFrom(pos uint64, max int) ([]Event, error) {
	blks, err := b.span(pos, max)
	if err != nil || len(blks) == 0 {
		return nil, err
	}
	return decodeSpan(blks, pos, max)
}

// span returns the blocks that hold what ReadFrom returns for pos and
// max, without blocking.
func (b *Binlog) span(pos uint64, max int) ([]block, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spanLocked(pos, max)
}

func (b *Binlog) spanLocked(pos uint64, max int) ([]block, error) {
	if pos+1 < b.first {
		return nil, ErrPositionTrimmed
	}
	i := sort.Search(len(b.blocks), func(i int) bool { return b.blocks[i].last() > pos })
	j := len(b.blocks)
	if max > 0 && i < j {
		k := sort.Search(j-i, func(k int) bool { return b.blocks[i+k].last() > pos+uint64(max) })
		j = i + k
		if k == 0 { // the first block alone holds more than max
			j++
		}
	}
	return b.blocks[i:j:j], nil
}

// decodeSpan decodes the events past pos out of blks, which span
// returned for pos and max: all of them, or the first max when the one
// block is larger. Only the events of the first block up to pos are
// decoded and dropped, which a reader resuming at a block boundary
// never pays.
func decodeSpan(blks []block, pos uint64, max int) ([]Event, error) {
	total := int(blks[len(blks)-1].last() - pos)
	if max > 0 && total > max {
		total = max
	}
	out := make([]Event, 0, total)
	for i := range blks {
		k := &blks[i]
		skip := 0
		if k.first <= pos {
			skip = int(pos - k.first + 1)
		}
		base := len(out)
		var err error
		if out, err = decodeBlock(out, k.buf, min(k.n, skip+total-base)); err != nil {
			return nil, fmt.Errorf("warehouse: binlog block at LSN %d: %w", k.first, err)
		}
		if skip > 0 {
			out = append(out[:base], out[base+skip:]...)
		}
	}
	return out, nil
}

// Wait blocks until events beyond pos exist, returning what ReadFrom
// would, or the context is cancelled.
func (b *Binlog) Wait(ctx context.Context, pos uint64, max int) ([]Event, error) {
	blks, err := b.waitSpan(ctx, pos, max)
	if err != nil {
		return nil, err
	}
	return decodeSpan(blks, pos, max)
}

// waitSpan is span that blocks until events beyond pos exist or the
// context is cancelled.
func (b *Binlog) waitSpan(ctx context.Context, pos uint64, max int) ([]block, error) {
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stop()

	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		blks, err := b.spanLocked(pos, max)
		if err != nil || len(blks) > 0 {
			return blks, err
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
	last := b.next - 1
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

// Trim discards the blocks whose events all have LSN <= upTo, freeing
// memory once all replicas have acknowledged past that position. A
// block holding upTo and later events stays whole, so reads from
// positions inside it still succeed.
func (b *Binlog) Trim(upTo uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := sort.Search(len(b.blocks), func(i int) bool { return b.blocks[i].last() > upTo })
	if i == 0 {
		return
	}
	first := b.next
	if i < len(b.blocks) {
		first = b.blocks[i].first
	}
	mBinlogTrims.Add(first - b.first)
	b.blocks = append([]block(nil), b.blocks[i:]...)
	b.first = first
}
