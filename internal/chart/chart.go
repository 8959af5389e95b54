// Package chart renders query results the way the XDMoD web interface
// does (paper §I-D, Figs. 1, 6, 7): timeseries or aggregate views of a
// metric, optionally grouped by a dimension, drawn as SVG line charts
// with per-series markers, axes and a legend, plus plain-text and CSV
// renderings for terminals and export.
package chart

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"xdmodfed/internal/aggregate"
)

// Chart is a renderable chart: a titled set of series at one period
// granularity.
type Chart struct {
	Title    string
	Subtitle string
	YLabel   string
	Period   aggregate.Period
	Series   []aggregate.Series
}

// New assembles a chart from query results.
func New(title, subtitle, yLabel string, p aggregate.Period, series []aggregate.Series) *Chart {
	return &Chart{Title: title, Subtitle: subtitle, YLabel: yLabel, Period: p, Series: series}
}

// periodKeys returns the sorted union of period keys across series.
func (c *Chart) periodKeys() []int64 {
	n := 0
	for _, s := range c.Series {
		n += len(s.Points)
	}
	keys := make([]int64, 0, n)
	for _, s := range c.Series {
		for _, pt := range s.Points {
			keys = append(keys, pt.PeriodKey)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// maxValue returns the largest point value (0 when empty).
func (c *Chart) maxValue() float64 {
	var mx float64
	for _, s := range c.Series {
		for _, pt := range s.Points {
			if pt.Value > mx {
				mx = pt.Value
			}
		}
	}
	return mx
}

// Marker shapes cycle per series, echoing the paper's plots (circles,
// diamonds, squares, triangles).
var markers = []string{"circle", "diamond", "square", "triangle"}

// seriesColors cycle per series.
var seriesColors = []string{"#1f77b4", "#d62728", "#7f7f7f", "#e8c22e", "#2ca02c", "#9467bd"}

// SVG renders the chart as a standalone SVG document.
func (c *Chart) SVG(width, height int) string { return string(c.AppendSVG(nil, width, height)) }

// AppendSVG appends the chart's standalone SVG document to b.
func (c *Chart) AppendSVG(b []byte, width, height int) []byte {
	if width <= 0 {
		width = 800
	}
	if height <= 0 {
		height = 420
	}
	const (
		marginL = 70
		marginR = 20
		marginT = 50
		marginB = 60
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	keys := c.periodKeys()
	maxV := c.maxValue()
	if maxV == 0 {
		maxV = 1
	}

	xPos := func(i int) float64 {
		if len(keys) <= 1 {
			return marginL + plotW/2
		}
		return marginL + plotW*float64(i)/float64(len(keys)-1)
	}
	yPos := func(v float64) float64 {
		return marginT + plotH*(1-v/maxV)
	}
	xOf := func(key int64) float64 {
		i, _ := slices.BinarySearch(keys, key)
		return xPos(i)
	}

	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, `" viewBox="0 0 `...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, "\">\n<rect width=\""...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(height), 10)
	b = append(b, "\" fill=\"white\"/>\n<text x=\""...)
	b = strconv.AppendInt(b, marginL, 10)
	b = append(b, `" y="22" font-size="16" font-family="sans-serif" font-weight="bold">`...)
	b = appendEscaped(b, c.Title)
	b = append(b, "</text>\n"...)
	if c.Subtitle != "" {
		b = append(b, `<text x="`...)
		b = strconv.AppendInt(b, marginL, 10)
		b = append(b, `" y="40" font-size="12" font-family="sans-serif" fill="#555">`...)
		b = appendEscaped(b, c.Subtitle)
		b = append(b, "</text>\n"...)
	}

	// Axes.
	b = appendLine(b, marginL, marginT, marginL, height-marginB)
	b = appendLine(b, marginL, height-marginB, width-marginR, height-marginB)
	// Y ticks.
	for i := 0; i <= 4; i++ {
		v := maxV * float64(i) / 4
		y := yPos(v)
		b = append(b, `<line x1="`...)
		b = strconv.AppendInt(b, marginL, 10)
		b = append(b, `" y1="`...)
		b = appendFixed1(b, y)
		b = append(b, `" x2="`...)
		b = strconv.AppendInt(b, int64(width-marginR), 10)
		b = append(b, `" y2="`...)
		b = appendFixed1(b, y)
		b = append(b, "\" stroke=\"#ccc\" stroke-dasharray=\"3,3\"/>\n<text x=\""...)
		b = strconv.AppendInt(b, marginL-6, 10)
		b = append(b, `" y="`...)
		b = appendFixed1(b, y+3)
		b = append(b, `" font-size="10" font-family="sans-serif" text-anchor="end">`...)
		b = appendTick(b, v)
		b = append(b, "</text>\n"...)
	}
	// X tick labels (thinned).
	step := 1
	if len(keys) > 12 {
		step = len(keys) / 12
	}
	for i := 0; i < len(keys); i += step {
		b = append(b, `<text x="`...)
		b = appendFixed1(b, xPos(i))
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, int64(height-marginB+16), 10)
		b = append(b, `" font-size="10" font-family="sans-serif" text-anchor="middle">`...)
		b = c.Period.AppendLabel(b, keys[i])
		b = append(b, "</text>\n"...)
	}
	midY := int64(marginT + int(plotH)/2)
	b = append(b, `<text x="16" y="`...)
	b = strconv.AppendInt(b, midY, 10)
	b = append(b, `" font-size="11" font-family="sans-serif" transform="rotate(-90 16 `...)
	b = strconv.AppendInt(b, midY, 10)
	b = append(b, `)" text-anchor="middle">`...)
	b = appendEscaped(b, c.YLabel)
	b = append(b, "</text>\n"...)

	// Series lines + markers.
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		b = append(b, `<path d="`...)
		for pi, pt := range s.Points {
			if pi == 0 {
				b = append(b, 'M')
			} else {
				b = append(b, " L"...)
			}
			b = appendFixed1(b, xOf(pt.PeriodKey))
			b = append(b, ' ')
			b = appendFixed1(b, yPos(pt.Value))
		}
		b = append(b, `" fill="none" stroke="`...)
		b = append(b, color...)
		b = append(b, "\" stroke-width=\"2\"/>\n"...)
		for _, pt := range s.Points {
			b = appendMarker(b, markers[si%len(markers)], xOf(pt.PeriodKey), yPos(pt.Value), color)
		}
	}

	// Legend.
	lx, ly := float64(marginL+10), float64(marginT+8)
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		name := s.Group
		if name == "" {
			name = "total"
		}
		b = appendMarker(b, markers[si%len(markers)], lx, ly, color)
		b = append(b, `<text x="`...)
		b = appendFixed1(b, lx+10)
		b = append(b, `" y="`...)
		b = appendFixed1(b, ly+4)
		b = append(b, `" font-size="11" font-family="sans-serif">`...)
		b = appendEscaped(b, name)
		b = append(b, "</text>\n"...)
		ly += 16
	}
	return append(b, "</svg>\n"...)
}

// appendLine appends a solid axis line from (x1, y1) to (x2, y2).
func appendLine(b []byte, x1, y1, x2, y2 int) []byte {
	b = append(b, `<line x1="`...)
	b = strconv.AppendInt(b, int64(x1), 10)
	b = append(b, `" y1="`...)
	b = strconv.AppendInt(b, int64(y1), 10)
	b = append(b, `" x2="`...)
	b = strconv.AppendInt(b, int64(x2), 10)
	b = append(b, `" y2="`...)
	b = strconv.AppendInt(b, int64(y2), 10)
	return append(b, "\" stroke=\"#333\"/>\n"...)
}

func appendMarker(b []byte, shape string, x, y float64, color string) []byte {
	switch shape {
	case "diamond":
		b = append(b, `<path d="M`...)
		b = appendFixed1(b, x)
		b = append(b, ' ')
		b = appendFixed1(b, y-4)
		b = append(b, ` l4 4 l-4 4 l-4 -4 z" fill="`...)
	case "square":
		b = append(b, `<rect x="`...)
		b = appendFixed1(b, x-3.5)
		b = append(b, `" y="`...)
		b = appendFixed1(b, y-3.5)
		b = append(b, `" width="7" height="7" fill="`...)
	case "triangle":
		b = append(b, `<path d="M`...)
		b = appendFixed1(b, x)
		b = append(b, ' ')
		b = appendFixed1(b, y-5)
		b = append(b, ` l4.5 8 l-9 0 z" fill="`...)
	default: // circle
		b = append(b, `<circle cx="`...)
		b = appendFixed1(b, x)
		b = append(b, `" cy="`...)
		b = appendFixed1(b, y)
		b = append(b, `" r="3.5" fill="`...)
	}
	b = append(b, color...)
	return append(b, "\"/>\n"...)
}

// appendTick appends an axis tick value: one decimal with a G, M or k
// suffix from a thousand up, four significant digits below.
func appendTick(b []byte, v float64) []byte {
	switch {
	case v >= 1e9:
		return append(appendFixed1(b, v/1e9), 'G')
	case v >= 1e6:
		return append(appendFixed1(b, v/1e6), 'M')
	case v >= 1e3:
		return append(appendFixed1(b, v/1e3), 'k')
	default:
		return strconv.AppendFloat(b, v, 'g', 4, 64)
	}
}

// fixed1Limit bounds the magnitude of v*10 that appendFixed1 rounds
// itself: below 2^40 the product's rounding error is at most 2^-14, so
// a fraction farther than fixed1Tie from one half rounds the same way
// as the exact decimal value of v.
const (
	fixed1Limit = 1 << 40
	fixed1Tie   = 1.0 / 1024
)

// appendFixed1 appends v with one decimal, exactly as
// strconv.AppendFloat(b, v, 'f', 1, 64) (and fmt's %.1f) would. The
// fixed-precision 'f' format always takes strconv's multi-precision
// path, so values that are finite, below fixed1Limit/10 in magnitude
// and clearly off a .x5 tie are rounded here as integers of tenths
// instead; the rest go to strconv.
func appendFixed1(b []byte, v float64) []byte {
	t := math.Abs(v) * 10
	if !(t < fixed1Limit) {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	whole := math.Floor(t)
	frac := t - whole
	if math.Abs(frac-0.5) < fixed1Tie {
		return strconv.AppendFloat(b, v, 'f', 1, 64)
	}
	tenths := uint64(whole)
	if frac > 0.5 {
		tenths++
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, tenths/10, 10)
	return append(b, '.', byte('0'+tenths%10))
}

// appendEscaped appends s as XML character data: the markup
// characters become entities, and every byte that is not valid UTF-8
// and every character XML 1.0 forbids (controls other than tab, line
// feed and carriage return, U+FFFE, U+FFFF) becomes U+FFFD, so that
// text taken from ingested data cannot make the document ill-formed.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' && c != '<' && c != '>' && c != '"' {
			i++
			continue
		}
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		var repl string
		switch {
		case r == '&':
			repl = "&amp;"
		case r == '<':
			repl = "&lt;"
		case r == '>':
			repl = "&gt;"
		case r == '"':
			repl = "&quot;"
		case r == '\t' || r == '\n' || r == '\r':
			i++
			continue
		case r < 0x20 || r == 0xFFFE || r == 0xFFFF || (r == utf8.RuneError && size == 1):
			repl = "\uFFFD"
		default:
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, repl...)
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// Text renders the chart as a fixed-width table for terminals.
func (c *Chart) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	if c.Subtitle != "" {
		fmt.Fprintf(&b, "%s\n", c.Subtitle)
	}
	b.WriteString(aggregate.FormatSeriesTable(c.Period, c.Series))
	return b.String()
}

// CSV renders the chart data as CSV (period column, one column per
// series), the XDMoD export format.
func (c *Chart) CSV() string {
	keys := c.periodKeys()
	var b []byte
	b = append(b, c.Period.String()...)
	for _, s := range c.Series {
		name := s.Group
		if name == "" {
			name = "total"
		}
		b = append(b, ',')
		b = append(b, csvEscape(name)...)
	}
	b = append(b, '\n')
	lookup := make([]map[int64]float64, len(c.Series))
	for i, s := range c.Series {
		lookup[i] = map[int64]float64{}
		for _, pt := range s.Points {
			lookup[i][pt.PeriodKey] = pt.Value
		}
	}
	for _, k := range keys {
		b = c.Period.AppendLabel(b, k)
		for i := range c.Series {
			b = append(b, ',')
			if v, ok := lookup[i][k]; ok {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
