package replicate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Aggregation pushdown, satellite side: instead of shipping a realm's
// raw fact events, the sender drains them into a cumulative per-realm
// fold (aggregate.DeltaFolder — the same fold a hub rebuild runs) and
// flushes mergeable partial-aggregate deltas on an interval. The hub
// stores the bins in per-member pagg tables and rebuilds its
// aggregation tables from them, so hub CPU and wire volume scale with
// the number of touched aggregation bins, not the number of facts.
//
// Crash safety is reset-on-connect: every (re)connection re-folds the
// realm's live fact table under a consistent snapshot and ships a
// Reset delta, so a sender killed mid-flush simply converges again
// from scratch — no delta-level positions, no replay protocol. The
// same reset path absorbs non-additive fact mutations (update, delete,
// truncate, bulk load), which a cumulative fold cannot express.
//
// A PushdownFolder is owned by exactly one Sender.Run goroutine; it is
// not safe for concurrent use.

// DefaultPushdownFlushInterval paces incremental delta flushes when
// the configuration does not say otherwise.
const DefaultPushdownFlushInterval = 2 * time.Second

// pushRealm is one realm's pushdown state.
type pushRealm struct {
	info realm.Info
	df   *aggregate.DeltaFolder
	// needReset requests a fresh snapshot fold at the next flush:
	// set at every (re)connect and on any non-additive fact mutation.
	needReset bool
}

// PushdownFolder folds a route's pushdown realms. The replication
// filter must be the same one the route's Rewriter applies, so the
// fold covers exactly the facts that fact replication would ship.
type PushdownFolder struct {
	eng      *aggregate.Engine
	filter   Filter
	interval time.Duration

	realms    map[string]*pushRealm // keyed by fact table name
	order     []*pushRealm          // flush order, sorted by realm name
	lastFlush time.Time
}

// NewPushdownFolder builds a folder for the given realms. Every realm
// must be mergeable (aggregate.MergeableRealm); callers route
// unmergeable realms to fact replication instead.
func NewPushdownFolder(eng *aggregate.Engine, infos []realm.Info, filter Filter, flushInterval time.Duration) (*PushdownFolder, error) {
	if len(infos) == 0 {
		return nil, fmt.Errorf("replicate: pushdown folder needs at least one realm")
	}
	if flushInterval <= 0 {
		flushInterval = DefaultPushdownFlushInterval
	}
	p := &PushdownFolder{eng: eng, filter: filter, interval: flushInterval,
		realms: make(map[string]*pushRealm, len(infos))}
	for _, info := range infos {
		df, err := eng.NewDeltaFolder(info)
		if err != nil {
			return nil, err
		}
		if _, dup := p.realms[info.FactTable]; dup {
			return nil, fmt.Errorf("replicate: pushdown realms %q share fact table %q", info.Name, info.FactTable)
		}
		pr := &pushRealm{info: info, df: df}
		p.realms[info.FactTable] = pr
		p.order = append(p.order, pr)
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i].info.Name < p.order[j].info.Name })
	return p, nil
}

// Realms returns the pushdown realm names, sorted (the hello offer).
func (p *PushdownFolder) Realms() []string {
	out := make([]string, len(p.order))
	for i, pr := range p.order {
		out[i] = pr.info.Name
	}
	return out
}

// Digest returns the satellite's aggregation-levels digest (the hub
// grants pushdown only on a match — bins rendered with different
// levels would not merge meaningfully).
func (p *PushdownFolder) Digest() string { return p.eng.LevelsDigest() }

// PrepareConnect marks every realm for a fresh snapshot fold. The
// sender calls it once per granted connection, before the first flush:
// the resulting Reset deltas re-establish the hub's bins from scratch,
// which is what makes a kill/restart mid-flush convergent.
func (p *PushdownFolder) PrepareConnect() {
	for _, pr := range p.order {
		pr.needReset = true
	}
	p.lastFlush = time.Time{}
}

// Consume filters a rewritten event batch before it is sent: fact
// events of pushdown realms are folded (inserts) or absorbed into a
// pending reset (anything non-additive) instead of shipping; all other
// events pass through for raw replication. upTo is the batch's binlog
// position — after Consume, every realm's fold covers it. Inserts at
// or below a realm's covered position are dropped without folding
// (they are already in the snapshot fold).
func (p *PushdownFolder) Consume(events []warehouse.Event, upTo uint64) ([]warehouse.Event, error) {
	out := events[:0]
	var pending *pushRealm
	var rows [][]any
	flushPending := func() error {
		if pending == nil || len(rows) == 0 {
			return nil
		}
		err := pending.df.FoldRows(rows)
		rows = rows[:0]
		return err
	}
	for _, ev := range events {
		pr := p.realms[ev.Table]
		if pr == nil {
			out = append(out, ev)
			continue
		}
		switch ev.Kind {
		case warehouse.EvCreateTable:
			// The hub never materializes a pushdown realm's raw fact
			// table; its absence (vs. the pagg tables' presence) is how
			// the hub tells the member's mode per realm.
			continue
		case warehouse.EvInsert:
			if pr.needReset || ev.LSN <= pr.df.Covered() {
				// Already covered: by the upcoming snapshot fold (the
				// event is committed, so the snapshot will contain it) or
				// by the one that ran.
				continue
			}
			if pending != pr {
				if err := flushPending(); err != nil {
					return nil, err
				}
				pending = pr
			}
			rows = append(rows, ev.Row)
		default:
			// Update, delete, truncate, bulk load: not expressible as a
			// cumulative fold — re-snapshot the table at the next flush.
			if err := flushPending(); err != nil {
				return nil, err
			}
			pending = nil
			pr.needReset = true
		}
	}
	if err := flushPending(); err != nil {
		return nil, err
	}
	for _, pr := range p.order {
		pr.df.SetCovered(upTo)
	}
	return out, nil
}

// notDue is DueIn's answer when there is nothing to flush.
const notDue = time.Duration(math.MaxInt64)

// DueIn reports how long until a flush should run: zero or less when
// any realm needs a reset, or bins are dirty and a flush interval has
// passed since the last flush; the rest of that interval while dirty
// bins wait for it; notDue when nothing is pending. The sender flushes
// when it is <= 0 and never sleeps on an idle binlog for longer.
//
// behind says the binlog already holds events the sender has not
// consumed. Dirty bins then wait one interval more: a flush cut into a
// backlog ships bins the rest of the backlog dirties again, and whether
// the backlog's last events make this flush or wait a whole interval
// for the next is decided by where the interval happens to fall. A
// reset does not wait — its snapshot fold covers the backlog.
func (p *PushdownFolder) DueIn(now time.Time, behind bool) time.Duration {
	d := notDue
	for _, pr := range p.order {
		if pr.needReset {
			return 0
		}
		if pr.df.Dirty() {
			d = p.interval - now.Sub(p.lastFlush)
			if behind {
				d += p.interval
			}
		}
	}
	return d
}

// Flush produces the deltas to ship: realms in name order, pending
// resets performed first (snapshot fold of the live fact table under
// the route's resource filter). Returns the deltas and the total bin
// count. Realms with nothing to say are skipped.
func (p *PushdownFolder) Flush(now time.Time) ([]aggregate.Delta, int, error) {
	var deltas []aggregate.Delta
	rows := 0
	for _, pr := range p.order {
		if pr.needReset {
			if _, err := pr.df.Reset(p.filter.ExcludeResources); err != nil {
				return nil, 0, err
			}
			pr.needReset = false
		}
		d, ok := pr.df.Flush()
		if !ok {
			continue
		}
		deltas = append(deltas, d)
		rows += d.Rows()
	}
	p.lastFlush = now
	return deltas, rows, nil
}
