package report

import (
	"fmt"
	"strings"
	"time"

	"xdmodfed/internal/chart"
)

// Custom report generation: "reporting capabilities that include data
// export and custom report generation" (paper §I-D). A Builder
// assembles titled sections of narrative text and charts into a
// document renderable as plain text or a standalone HTML page (with
// inline SVG charts), suitable for the scheduled reports XDMoD mails
// to stakeholders.

// Section is one report section.
type Section struct {
	Heading string
	Body    string
	Chart   *chart.Chart
}

// Builder accumulates a report document.
type Builder struct {
	Title     string
	Author    string
	Generated time.Time
	Schedule  string // free-form: "monthly", "quarterly", ...
	sections  []Section
}

// NewBuilder starts a report.
func NewBuilder(title, author string) *Builder {
	return &Builder{Title: title, Author: author, Generated: time.Now().UTC()}
}

// AddText appends a narrative section.
func (b *Builder) AddText(heading, body string) *Builder {
	b.sections = append(b.sections, Section{Heading: heading, Body: body})
	return b
}

// AddChart appends a chart section with optional commentary.
func (b *Builder) AddChart(heading string, c *chart.Chart, commentary string) *Builder {
	b.sections = append(b.sections, Section{Heading: heading, Body: commentary, Chart: c})
	return b
}

// Text renders the report for terminals or plain-text mail.
func (b *Builder) Text() string {
	var out strings.Builder
	fmt.Fprintf(&out, "%s\n", b.Title)
	fmt.Fprintf(&out, "%s\n", strings.Repeat("=", len(b.Title)))
	if b.Author != "" {
		fmt.Fprintf(&out, "prepared by %s", b.Author)
		if b.Schedule != "" {
			fmt.Fprintf(&out, " (%s report)", b.Schedule)
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "generated %s\n\n", b.Generated.Format("2006-01-02 15:04 MST"))
	for i, s := range b.sections {
		fmt.Fprintf(&out, "%d. %s\n", i+1, s.Heading)
		if s.Body != "" {
			fmt.Fprintf(&out, "%s\n", s.Body)
		}
		if s.Chart != nil {
			out.WriteString(s.Chart.Text())
		}
		out.WriteByte('\n')
	}
	return out.String()
}

// HTML renders the report as a standalone page with inline SVG charts.
func (b *Builder) HTML() string {
	var out strings.Builder
	out.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&out, "<title>%s</title>", htmlEscape(b.Title))
	out.WriteString(`<style>body{font-family:sans-serif;max-width:60em;margin:2em auto}pre{background:#f6f6f6;padding:1em;overflow-x:auto}</style>`)
	out.WriteString("</head><body>\n")
	fmt.Fprintf(&out, "<h1>%s</h1>\n", htmlEscape(b.Title))
	fmt.Fprintf(&out, "<p><em>prepared by %s, generated %s</em></p>\n",
		htmlEscape(b.Author), b.Generated.Format("2006-01-02 15:04 MST"))
	for _, s := range b.sections {
		fmt.Fprintf(&out, "<h2>%s</h2>\n", htmlEscape(s.Heading))
		if s.Body != "" {
			fmt.Fprintf(&out, "<p>%s</p>\n", htmlEscape(s.Body))
		}
		if s.Chart != nil {
			out.WriteString(s.Chart.SVG(0, 0))
			out.WriteString("\n<pre>")
			out.WriteString(htmlEscape(s.Chart.CSV()))
			out.WriteString("</pre>\n")
		}
	}
	out.WriteString("</body></html>\n")
	return out.String()
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
