package chart

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"xdmodfed/internal/aggregate"
)

// textPieces are the building blocks of random chart text: markup
// characters, the whitespace XML allows, control bytes it forbids,
// multi-byte characters, the non-characters U+FFFE/U+FFFF, and bytes
// that are not valid UTF-8 (a stray continuation byte, a truncated
// sequence, 0xff).
var textPieces = []string{
	"a", "Z", "7", " ", "comet", "<", ">", "&", `"`, "'", "&amp;",
	"\t", "\n", "\r", "\x00", "\x01", "\x1f", "\x7f",
	"\u00e9", "\u6f22", "\U0001F680", "\u2028", "\uFFFD", "\uFFFE", "\uFFFF",
	"\x80", "\xc3", "\xe6\xbc", "\xff",
}

func randText(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(8); n > 0; n-- {
		b.WriteString(textPieces[r.Intn(len(textPieces))])
	}
	return b.String()
}

// xmlLegal is what appendEscaped promises to make of s before
// escaping: each invalid byte and each character XML 1.0 forbids
// replaced by U+FFFD.
func xmlLegal(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			r = utf8.RuneError
		}
		b.WriteRune(r)
	}
	return b.String()
}

// randValue draws chart values of every shape a renderer must get
// right: ordinary magnitudes, exact .x5 ties, negatives, zeros of both
// signs, the very small and very large, and now and then a non-finite
// value.
func randValue(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return float64(r.Intn(200)) / 20 // exact and near ties
	case 1:
		return -r.Float64() * 1e4
	case 2:
		return [...]float64{0, math.Copysign(0, -1), 1, 0.05, 0.25}[r.Intn(5)]
	case 3:
		return math.Pow(10, r.Float64()*40-20)
	case 4:
		return [...]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}[r.Intn(5)]
	case 5:
		return float64(r.Int63n(1 << 40))
	default:
		return r.Float64() * 1e4
	}
}

func randKey(r *rand.Rand, p aggregate.Period) int64 {
	if r.Intn(20) == 0 {
		return r.Int63() - r.Int63() // any key at all, negatives included
	}
	switch p {
	case aggregate.Day:
		return 20170000 + int64(r.Intn(12)+1)*100 + int64(r.Intn(28)+1)
	case aggregate.Month:
		return 201700 + int64(r.Intn(3))*100 + int64(r.Intn(12)+1)
	case aggregate.Quarter:
		return 20170 + int64(r.Intn(5))*10 + int64(r.Intn(4)+1)
	default:
		return 2010 + int64(r.Intn(30))
	}
}

func randChart(r *rand.Rand) *Chart {
	p := aggregate.Period(r.Intn(6)) // includes the invalid periods 0 and 5
	series := make([]aggregate.Series, r.Intn(9))
	for i := range series {
		s := &series[i]
		s.Group = randText(r)
		if r.Intn(8) == 0 {
			s.Group = ""
		}
		for n := r.Intn(30); n > 0; n-- {
			s.Points = append(s.Points, aggregate.Point{PeriodKey: randKey(r, p), Value: randValue(r)})
		}
	}
	if r.Intn(10) == 0 {
		series = nil
	}
	return New(randText(r), randText(r), randText(r), p, series)
}

func randSize(r *rand.Rand) int {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -r.Intn(100)
	default:
		return r.Intn(2000) + 1
	}
}

// TestAppendSVGMatchesFmtRenderer holds AppendSVG to the bytes the fmt
// renderer wrote, for text made XML-legal first (the one output change:
// see TestSVGEscapesText), and checks every document is legal XML.
func TestAppendSVGMatchesFmtRenderer(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := randChart(r)
		w, h := randSize(r), randSize(r)
		legal := *c
		legal.Title, legal.Subtitle, legal.YLabel = xmlLegal(c.Title), xmlLegal(c.Subtitle), xmlLegal(c.YLabel)
		legal.Series = append([]aggregate.Series(nil), c.Series...)
		for j := range legal.Series {
			legal.Series[j].Group = xmlLegal(legal.Series[j].Group)
		}
		got := string(c.AppendSVG([]byte("prefix"), w, h))
		if want := "prefix" + oldSVG(&legal, w, h); got != want {
			t.Fatalf("chart %d (%dx%d) differs from the fmt renderer:\n got %q\nwant %q", i, w, h, got, want)
		}
		if err := xmlWellFormed(got[len("prefix"):]); err != nil {
			t.Fatalf("chart %d is not legal XML: %v", i, err)
		}
	}
}

// TestCSVMatchesFmtRenderer holds CSV to the bytes fmt wrote.
func TestCSVMatchesFmtRenderer(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		c := randChart(r)
		if got, want := c.CSV(), oldCSV(c); got != want {
			t.Fatalf("chart %d: CSV differs from the fmt renderer:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestAppendFixed1MatchesStrconv checks the %.1f fast path against
// strconv over a million values: exact .x5 ties and their neighbours,
// the edges of the range it rounds itself, negatives, zeros, tiny,
// huge and non-finite values, and random magnitudes.
func TestAppendFixed1MatchesStrconv(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := string(appendFixed1(nil, v)), strconv.FormatFloat(v, 'f', 1, 64); got != want {
			t.Fatalf("appendFixed1(%v) = %q, want %q", v, got, want)
		}
	}
	edge := float64(fixed1Limit) / 10
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.05, -0.05, 0.04999999999999999, 0.25, 0.35, 0.45, 1.25, 2.5, 9.95, 99.95,
		edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)),
		-edge, math.Nextafter(-edge, 0), math.Nextafter(-edge, math.Inf(-1)),
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300, 1e-300,
	} {
		check(v)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<20; i++ {
		var v float64
		switch i % 6 {
		case 0: // exact ties k/20 and their neighbours
			v = float64(r.Int63n(1<<36)) / 20
			v = [...]float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))}[r.Intn(3)]
		case 1:
			v = (r.Float64()*2 - 1) * edge * 1.01
		case 2:
			v = math.Pow(10, r.Float64()*30-15)
		case 3:
			v = r.Float64() * 1000
		case 4:
			v = math.Float64frombits(r.Uint64())
		default:
			v = float64(r.Intn(1e6)) / 100
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		check(v)
	}
}

// FuzzChartSVG holds any title, subtitle, y label and group name to a
// document that encoding/xml reads to the end, and to the fmt
// renderer's bytes once the text is made XML-legal.
func FuzzChartSVG(f *testing.F) {
	f.Add("XD SUs Charged", "2017, by resource", "XD SU", "comet", 1.5)
	f.Add(`<script>"x"&y</script>`, "", "", "", 0.0)
	f.Add("a\x01b", "a\xffb", "\uFFFE\uFFFF", "\x00\t\n\r", -0.05)
	f.Add("\xe6\xbc", "\u2028", "\U0001F680", "\x80\u00e9", 1e300)
	f.Fuzz(func(t *testing.T, title, subtitle, yLabel, group string, v float64) {
		series := []aggregate.Series{
			{Group: group, Points: []aggregate.Point{{PeriodKey: 201701, Value: v}, {PeriodKey: 201702, Value: 2 * v}}},
			{Group: "", Points: []aggregate.Point{{PeriodKey: 201702, Value: 1}}},
		}
		c := New(title, subtitle, yLabel, aggregate.Month, series)
		got := c.SVG(0, 0)
		if err := xmlWellFormed(got); err != nil {
			t.Fatalf("not legal XML: %v\n%q", err, got)
		}
		legal := New(xmlLegal(title), xmlLegal(subtitle), xmlLegal(yLabel), aggregate.Month, []aggregate.Series{series[0], series[1]})
		legal.Series[0].Group = xmlLegal(group)
		if want := oldSVG(legal, 0, 0); got != want {
			t.Fatalf("differs from the fmt renderer:\n got %q\nwant %q", got, want)
		}
	})
}
