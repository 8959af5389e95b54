package obs

import (
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition format (version 0.0.4) rendering.
//
// For each family:
//
//	# HELP <name> <escaped help>
//	# TYPE <name> counter|gauge|histogram
//	<name>{label="value",...} <value>
//
// Histograms render cumulative le buckets plus _sum and _count.
// Families are sorted by name and series by label values so scrapes
// are deterministic and diffable.

// ContentType is the Content-Type for rendered metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double quote and newline in a label
// value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeLabels appends {k="v",...} for the given names/values, plus an
// optional extra pair (used for histogram le).
func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// Render writes every registered metric in exposition format.
func (r *Registry) Render(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		ser := f.sortedSeries()
		if len(ser) == 0 {
			continue
		}
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range ser {
			switch m := s.m.(type) {
			case *Counter:
				b.WriteString(f.name)
				writeLabels(&b, f.labels, s.values, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.Value(), 10))
				b.WriteByte('\n')
			case *Gauge:
				b.WriteString(f.name)
				writeLabels(&b, f.labels, s.values, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.Value()))
				b.WriteByte('\n')
			case *Histogram:
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labels, s.values, "le", formatFloat(bound))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				cum += m.counts[len(m.bounds)].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, f.labels, s.values, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')

				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labels, s.values, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.Sum()))
				b.WriteByte('\n')

				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labels, s.values, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.Count(), 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
