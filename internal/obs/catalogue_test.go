package obs_test

import (
	"os"
	"regexp"
	"testing"

	"xdmodfed/internal/obs"

	// Every package that registers metrics in obs.Default, so that the
	// registry this test reads is the one a daemon exposes.
	_ "xdmodfed/internal/admission"
	_ "xdmodfed/internal/aggregate"
	_ "xdmodfed/internal/auth"
	_ "xdmodfed/internal/core"
	_ "xdmodfed/internal/ingest"
	_ "xdmodfed/internal/qcache"
	_ "xdmodfed/internal/replicate"
	_ "xdmodfed/internal/rest"
	_ "xdmodfed/internal/warehouse"
	_ "xdmodfed/internal/warehouse/store"
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
