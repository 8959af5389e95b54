package warehouse

import "time"

// AppendCommit appends evs to b as one commit, numbering them and
// giving those without a time the commit's, in place, as a write
// transaction's commit does: the external tests drive the binlog with
// it directly.
func (b *Binlog) AppendCommit(evs []Event) {
	b.appendCommit(len(evs), func(dst []byte, i, j int, first uint64, now time.Time) []byte {
		for k := i; k < j; k++ {
			evs[k].LSN = first + uint64(k-i)
			if evs[k].Time.IsZero() {
				evs[k].Time = now
			}
		}
		return AppendEvents(dst, evs[i:j])
	})
}

// Append adds an event as a commit of its own, assigns its LSN, and
// wakes blocked readers: a commit of one event the test codes boxed.
func (b *Binlog) Append(ev Event) uint64 {
	var lsn uint64
	b.appendCommit(1, func(dst []byte, _, _ int, first uint64, now time.Time) []byte {
		ev.LSN, lsn = first, first
		if ev.Time.IsZero() {
			ev.Time = now
		}
		return AppendEvents(dst, []Event{ev})
	})
	return lsn
}

// SetClock makes clock the source of b's commit times.
func (b *Binlog) SetClock(clock func() time.Time) { b.clock = clock }

// Blocks returns the coding of every retained block, in order.
func (b *Binlog) Blocks() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]byte, len(b.blocks))
	for i := range b.blocks {
		out[i] = b.blocks[i].buf
	}
	return out
}
