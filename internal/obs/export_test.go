package obs

import (
	"sort"
	"strings"
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

// RenderString renders r to a string.
func (r *Registry) RenderString() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}
