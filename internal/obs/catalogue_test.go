package obs_test

import (
	"os"
	"path/filepath"
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
// every xdmodfed_ name on any line of docs/*.md — table row or prose —
// must be a family the linked packages register, so a deleted or
// renamed metric cannot leave a line promising a series no daemon
// exports. A histogram's _bucket, _sum and _count series resolve to
// their family, and a name ending in '_' (a prefix standing for a
// group of families) must begin at least one live family.
func TestMetricCatalogueNamesOnlyLiveFamilies(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no docs found (%v)", err)
	}
	names := obs.Default.FamilyNames()
	live := map[string]bool{}
	for _, name := range names {
		live[name] = true
	}
	isLive := func(name string) bool {
		if strings.HasSuffix(name, "_") {
			for _, n := range names {
				if strings.HasPrefix(n, name) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && live[base] {
				return true
			}
		}
		return false
	}
	metricName := regexp.MustCompile(`\bxdmodfed_[a-z0-9_]+`)
	for _, path := range docs {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(doc), "\n") {
			for _, name := range metricName.FindAllString(line, -1) {
				if !isLive(name) {
					t.Errorf("docs/%s:%d names %s, which no package registers", filepath.Base(path), i+1, name)
				}
			}
		}
	}
}
