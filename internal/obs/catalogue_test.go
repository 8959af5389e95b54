package obs_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"xdmodfed/internal/obs"

	// Every package that registers metrics in obs.Default, so that the
	// registry this test reads is the one a daemon exposes.
	_ "xdmodfed/internal/admission"
	_ "xdmodfed/internal/aggregate"
	_ "xdmodfed/internal/core"
	_ "xdmodfed/internal/ingest"
	_ "xdmodfed/internal/qcache"
	_ "xdmodfed/internal/replicate"
	_ "xdmodfed/internal/rest"
	_ "xdmodfed/internal/warehouse"
)

// TestMetricCatalogueIsComplete: docs/observability.md is the metric
// catalogue operators build dashboards from, so every family a daemon
// can expose must be named there — a new or renamed metric without its
// catalogue line fails here.
func TestMetricCatalogueIsComplete(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	names := obs.Default.FamilyNames()
	if len(names) < 50 {
		t.Fatalf("only %d families registered; the instrumented packages are not all linked", len(names))
	}
	for _, name := range names {
		// \b does not break at '_', so a longer family's name cannot
		// vouch for a shorter one.
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(doc) {
			t.Errorf("metric family %s is not documented in docs/observability.md", name)
		}
	}
}

// TestMetricCatalogueNamesOnlyLiveFamilies is the reverse guard:
// every xdmodfed_ name in a table row of docs/observability.md must be
// a family the linked packages register, so a deleted or renamed metric
// cannot leave a catalogue line promising a series no daemon exports.
// The hub's re-exported xdmodfed_member_* names are not families of
// their own.
func TestMetricCatalogueNamesOnlyLiveFamilies(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, name := range obs.Default.FamilyNames() {
		live[name] = true
	}
	metricName := regexp.MustCompile(`\bxdmodfed_[a-z0-9_]+`)
	for i, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, name := range metricName.FindAllString(line, -1) {
			if !live[name] && !strings.HasPrefix(name, "xdmodfed_member_") {
				t.Errorf("docs/observability.md:%d names %s, which no package registers", i+1, name)
			}
		}
	}
}
