package chart

import (
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"xdmodfed/internal/aggregate"
)

func sample() *Chart {
	return New("XD SUs Charged: Total", "2017, by resource", "XD SU", aggregate.Month, []aggregate.Series{
		{Group: "comet", Points: []aggregate.Point{{PeriodKey: 201701, Value: 100}, {PeriodKey: 201702, Value: 150}}, Aggregate: 250},
		{Group: "stampede2", Points: []aggregate.Point{{PeriodKey: 201701, Value: 50}, {PeriodKey: 201702, Value: 120}}, Aggregate: 170},
		{Group: "stampede", Points: []aggregate.Point{{PeriodKey: 201701, Value: 80}}, Aggregate: 80},
		{Group: "bridges", Points: []aggregate.Point{{PeriodKey: 201702, Value: 30}}, Aggregate: 30},
	})
}

func TestSVGWellFormed(t *testing.T) {
	svg := sample().SVG(800, 420)
	for _, want := range []string{
		"<svg", "</svg>", "XD SUs Charged", "comet", "stampede2",
		"<circle", "<path", "<rect", "2017-01",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<svg") != 1 {
		t.Error("multiple svg roots")
	}
	// Four series exercise all four marker shapes.
	for _, m := range []string{"<circle", "l4 4 l-4 4", `width="7"`, "l4.5 8"} {
		if !strings.Contains(svg, m) {
			t.Errorf("marker %q missing", m)
		}
	}
}

func TestSVGEscapesText(t *testing.T) {
	c := New(`<script>"x"&y</script>`, "", "", aggregate.Year, nil)
	svg := c.SVG(0, 0)
	if strings.Contains(svg, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "&lt;script&gt;") {
		t.Error("escaped form missing")
	}

	// A control byte or invalid UTF-8 in a group name, title or
	// subtitle becomes U+FFFD, so the document stays legal XML.
	for _, bad := range []string{"a\x01b", "a\xffb"} {
		c := New(bad, bad, bad, aggregate.Year, []aggregate.Series{
			{Group: bad, Points: []aggregate.Point{{PeriodKey: 2017, Value: 1}}},
		})
		svg := c.SVG(0, 0)
		if err := xmlWellFormed(svg); err != nil {
			t.Errorf("%q: SVG is not legal XML: %v", bad, err)
		}
		if n := strings.Count(svg, "a\uFFFDb"); n != 4 {
			t.Errorf("%q: %d replaced texts, want 4 (title, subtitle, y label, legend)", bad, n)
		}
	}
}

// xmlWellFormed reads doc to the end with encoding/xml's tokenizer.
func xmlWellFormed(doc string) error {
	d := xml.NewDecoder(strings.NewReader(doc))
	for {
		if _, err := d.Token(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

func TestSVGEmptyChart(t *testing.T) {
	c := New("Empty", "", "", aggregate.Month, nil)
	svg := c.SVG(100, 100)
	if !strings.Contains(svg, "</svg>") {
		t.Error("empty chart should still render")
	}
}

func TestTextAndCSV(t *testing.T) {
	c := sample()
	txt := c.Text()
	if !strings.Contains(txt, "comet") || !strings.Contains(txt, "TOTAL") {
		t.Errorf("text render:\n%s", txt)
	}
	csv := c.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 { // header + 2 months
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "month,comet,stampede2,stampede,bridges" {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2017-01,100,50,80,") {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	c := New("t", "", "", aggregate.Year, []aggregate.Series{
		{Group: `has,comma "and" quotes`, Points: []aggregate.Point{{PeriodKey: 2017, Value: 1}}},
	})
	csv := c.CSV()
	if !strings.Contains(csv, `"has,comma ""and"" quotes"`) {
		t.Errorf("csv escaping wrong:\n%s", csv)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		5:     "5",
		1500:  "1.5k",
		2.5e6: "2.5M",
		3.2e9: "3.2G",
	}
	for v, want := range cases {
		if got := string(appendTick(nil, v)); got != want {
			t.Errorf("appendTick(%g) = %q, want %q", v, got, want)
		}
	}
}
