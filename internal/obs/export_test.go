package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
)

// FamilyNames returns every family registered in r, sorted — including
// labeled families that have no series yet, which Render skips.
func (r *Registry) FamilyNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ScrapeOnce scrapes every target now, backed-off ones included. It
// skips the backoff check without resetting any member's backoff, so a
// test sees exactly what scrapeMember leaves behind.
func (f *Federator) ScrapeOnce(ctx context.Context) {
	f.mu.Lock()
	all := make([]*fedMember, 0, len(f.order))
	for _, name := range f.order {
		all = append(all, f.members[name])
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range all {
		wg.Add(1)
		go func(m *fedMember) {
			defer wg.Done()
			f.scrapeMember(ctx, m)
		}(m)
	}
	wg.Wait()
}

// RenderString renders r to a string.
func (r *Registry) RenderString() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}

// Label returns the value of the named label ("" when absent).
func (s ParsedSample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}
