package aggregate

import (
	"fmt"
	"time"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Scope limits a recompute to the aggregation groups a non-additive
// write can have changed: per period (indexed like Periods()), the
// groups keyed by their groupKey rendering. ReaggregateFrom with a
// scope refolds exactly those groups from the facts; a nil Scope is
// the whole realm.
type Scope []map[string]scopeGroup

// scopeGroup is one scoped group's key values, kept so that a group
// the recompute finds empty can be deleted by primary key.
type scopeGroup struct {
	periodKey int64
	dims      []string
}

func newScope() Scope {
	s := make(Scope, len(Periods()))
	for i := range s {
		s[i] = make(map[string]scopeGroup)
	}
	return s
}

// scopeOf returns the groups the facts at positions at of a fact-table
// view (a write's Change.Data) fall in, in every period. The facts are
// decoded the way every fold decodes them (eachFact), so a scope names
// exactly the groups those facts were or will be folded into. For an
// update or delete, pass both the replaced and the written positions:
// the groups a fact leaves change as much as the ones it joins.
func (e *Engine) scopeOf(info realm.Info, td *warehouse.TableData, at []int) (Scope, error) {
	s := newScope()
	periods := Periods()
	var keyBuf []byte
	err := e.eachFact(info, td, nil, at, nil, func(t time.Time, dims []string, _, _ []float64) {
		var dimsCopy []string // shared by every period's group of this fact
		for pi, period := range periods {
			pk := period.Key(t)
			keyBuf = groupKey(keyBuf, pk, dims)
			if _, ok := s[pi][string(keyBuf)]; ok {
				continue
			}
			if dimsCopy == nil {
				dimsCopy = append([]string(nil), dims...)
			}
			s[pi][string(keyBuf)] = scopeGroup{periodKey: pk, dims: dimsCopy}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("aggregate: scope of %s rows: %w", info.Name, err)
	}
	return s, nil
}

// Len returns how many groups the scope names, over all periods.
func (s Scope) Len() int {
	n := 0
	for _, groups := range s {
		n += len(groups)
	}
	return n
}

// installScoped writes a scoped recompute's result into one period's
// aggregation table: one batch upsert of the groups that came out
// non-empty, then a delete of every scoped group that came out empty —
// its last fact is gone. Must run under the DB write lock.
func installScoped(tab *warehouse.Table, c *aggCodec, groups map[string]*accRow, scope map[string]scopeGroup) error {
	if len(groups) > 0 {
		if err := tab.UpsertColumns(c.columns(groups), nil); err != nil {
			return err
		}
	}
	for k, g := range scope {
		if groups[k] != nil {
			continue
		}
		key := make([]any, 0, 1+len(g.dims))
		key = append(key, g.periodKey)
		for _, d := range g.dims {
			key = append(key, d)
		}
		tab.DeleteByKey(key...)
	}
	return nil
}
