package chart

// The SVG and CSV renderers as they were before they appended bytes,
// kept verbatim (fmt, a map per chart, a strings.Replacer per call) as
// the oracles of render_test.go. Only the names changed.

import (
	"fmt"
	"sort"
	"strings"

	"xdmodfed/internal/aggregate"
)

// oldPeriodKeys returns the sorted union of period keys across series.
func oldPeriodKeys(c *Chart) []int64 {
	set := map[int64]bool{}
	for _, s := range c.Series {
		for _, pt := range s.Points {
			set[pt.PeriodKey] = true
		}
	}
	keys := make([]int64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// oldSVG renders the chart as a standalone SVG document.
func oldSVG(c *Chart, width, height int) string {
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
	keys := oldPeriodKeys(c)
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

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="22" font-size="16" font-family="sans-serif" font-weight="bold">%s</text>`+"\n",
		marginL, oldEscape(c.Title))
	if c.Subtitle != "" {
		fmt.Fprintf(&b, `<text x="%d" y="40" font-size="12" font-family="sans-serif" fill="#555">%s</text>`+"\n",
			marginL, oldEscape(c.Subtitle))
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		marginL, marginT, marginL, height-marginB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		marginL, height-marginB, width-marginR, height-marginB)
	// Y ticks.
	for i := 0; i <= 4; i++ {
		v := maxV * float64(i) / 4
		y := yPos(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ccc" stroke-dasharray="3,3"/>`+"\n",
			marginL, y, width-marginR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="10" font-family="sans-serif" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+3, oldFormatTick(v))
	}
	// X tick labels (thinned).
	step := 1
	if len(keys) > 12 {
		step = len(keys) / 12
	}
	for i := 0; i < len(keys); i += step {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n",
			xPos(i), height-marginB+16, oldLabel(c.Period, keys[i]))
	}
	fmt.Fprintf(&b, `<text x="16" y="%d" font-size="11" font-family="sans-serif" transform="rotate(-90 16 %d)" text-anchor="middle">%s</text>`+"\n",
		marginT+int(plotH)/2, marginT+int(plotH)/2, oldEscape(c.YLabel))

	keyIndex := map[int64]int{}
	for i, k := range keys {
		keyIndex[k] = i
	}

	// Series lines + markers.
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		var path strings.Builder
		for pi, pt := range s.Points {
			x, y := xPos(keyIndex[pt.PeriodKey]), yPos(pt.Value)
			if pi == 0 {
				fmt.Fprintf(&path, "M%.1f %.1f", x, y)
			} else {
				fmt.Fprintf(&path, " L%.1f %.1f", x, y)
			}
		}
		fmt.Fprintf(&b, `<path d="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n", path.String(), color)
		for _, pt := range s.Points {
			x, y := xPos(keyIndex[pt.PeriodKey]), yPos(pt.Value)
			b.WriteString(oldMarker(markers[si%len(markers)], x, y, color))
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
		b.WriteString(oldMarker(markers[si%len(markers)], lx, ly, color))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif">%s</text>`+"\n",
			lx+10, ly+4, oldEscape(name))
		ly += 16
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func oldMarker(shape string, x, y float64, color string) string {
	switch shape {
	case "diamond":
		return fmt.Sprintf(`<path d="M%.1f %.1f l4 4 l-4 4 l-4 -4 z" fill="%s"/>`+"\n", x, y-4, color)
	case "square":
		return fmt.Sprintf(`<rect x="%.1f" y="%.1f" width="7" height="7" fill="%s"/>`+"\n", x-3.5, y-3.5, color)
	case "triangle":
		return fmt.Sprintf(`<path d="M%.1f %.1f l4.5 8 l-9 0 z" fill="%s"/>`+"\n", x, y-5, color)
	default: // circle
		return fmt.Sprintf(`<circle cx="%.1f" cy="%.1f" r="3.5" fill="%s"/>`+"\n", x, y, color)
	}
}

func oldFormatTick(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func oldEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// oldLabel is aggregate.Period.Label as it was formatted with fmt.
func oldLabel(p aggregate.Period, key int64) string {
	switch p {
	case aggregate.Day:
		return fmt.Sprintf("%04d-%02d-%02d", key/10000, (key/100)%100, key%100)
	case aggregate.Month:
		return fmt.Sprintf("%04d-%02d", key/100, key%100)
	case aggregate.Quarter:
		return fmt.Sprintf("%04d Q%d", key/10, key%10)
	case aggregate.Year:
		return fmt.Sprintf("%04d", key)
	default:
		return fmt.Sprintf("%d", key)
	}
}

// oldCSV renders the chart data as CSV (period column, one column per
// series), the XDMoD export format.
func oldCSV(c *Chart) string {
	keys := oldPeriodKeys(c)
	var b strings.Builder
	b.WriteString(c.Period.String())
	for _, s := range c.Series {
		name := s.Group
		if name == "" {
			name = "total"
		}
		fmt.Fprintf(&b, ",%s", csvEscape(name))
	}
	b.WriteByte('\n')
	lookup := make([]map[int64]float64, len(c.Series))
	for i, s := range c.Series {
		lookup[i] = map[int64]float64{}
		for _, pt := range s.Points {
			lookup[i][pt.PeriodKey] = pt.Value
		}
	}
	for _, k := range keys {
		b.WriteString(oldLabel(c.Period, k))
		for i := range c.Series {
			if v, ok := lookup[i][k]; ok {
				fmt.Fprintf(&b, ",%g", v)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
