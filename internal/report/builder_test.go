package report

import (
	"strings"
	"testing"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/chart"
)

func sampleChart() *chart.Chart {
	return chart.New("CPU Hours", "2017", "CPU Hour", aggregate.Month, []aggregate.Series{
		{Group: "comet", Points: []aggregate.Point{{PeriodKey: 201701, Value: 42}}, Aggregate: 42},
	})
}

func TestBuilderText(t *testing.T) {
	b := NewBuilder("Quarterly Utilization Report", "CCR Operations")
	b.Schedule = "quarterly"
	b.AddText("Summary", "Utilization remained steady.")
	b.AddChart("Usage by Resource", sampleChart(), "Comet dominated.")
	out := b.Text()
	for _, want := range []string{
		"Quarterly Utilization Report",
		"prepared by CCR Operations (quarterly report)",
		"1. Summary",
		"Utilization remained steady.",
		"2. Usage by Resource",
		"comet",
		"TOTAL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text missing %q:\n%s", want, out)
		}
	}
	if len(b.sections) != 2 {
		t.Errorf("sections = %d", len(b.sections))
	}
}

func TestBuilderHTML(t *testing.T) {
	b := NewBuilder(`Report <"2017">`, "Ops & Co")
	b.AddChart("Chart", sampleChart(), "note")
	out := b.HTML()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Report &lt;&quot;2017&quot;&gt;",
		"Ops &amp; Co",
		"<svg",
		"<pre>month,comet",
		"</html>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
	if strings.Contains(out, `<"2017">`) {
		t.Error("title not escaped")
	}
}
