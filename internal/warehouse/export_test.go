package warehouse

// AppendCommit appends evs to b as one commit, as a write transaction's
// commit does: the external tests drive the binlog with it directly.
func (b *Binlog) AppendCommit(evs []Event) { b.appendCommit(evs) }
