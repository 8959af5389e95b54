package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parser for the Prometheus text exposition format (version 0.0.4) —
// the inverse of expo.go's Render. The hub's telemetry federator uses
// it to re-export member series under a member label, and the expo
// tests use it to prove escaping round-trips.

// ParsedLabel is one label pair of a parsed sample, in exposition
// order.
type ParsedLabel struct {
	Name  string
	Value string
}

// ParsedSample is one sample line. Name is the full sample name
// (including a histogram's _bucket/_sum/_count suffix).
type ParsedSample struct {
	Name   string
	Labels []ParsedLabel
	Value  float64
}

// ParsedFamily is one metric family: its HELP/TYPE announcement and
// the samples that followed it.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | "" (unannounced)
	Samples []ParsedSample
}

// ParseExposition parses a Prometheus text-format document into its
// families, in document order. Sample lines carrying a histogram
// suffix (_bucket/_sum/_count) attach to the announced base family.
// Unknown comment lines are ignored; a malformed sample line is an
// error.
func ParseExposition(r io.Reader) ([]ParsedFamily, error) {
	var (
		out   []ParsedFamily
		index = map[string]int{} // family name -> position in out
	)
	family := func(name string) *ParsedFamily {
		if i, ok := index[name]; ok {
			return &out[i]
		}
		index[name] = len(out)
		out = append(out, ParsedFamily{Name: name})
		return &out[len(out)-1]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(scanLF)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, help, _ := strings.Cut(rest, " ")
				family(name).Help = unescapeHelp(help)
			} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(rest, " ")
				family(name).Type = typ
			}
			continue // other comments are ignored per the format
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
		base := sample.Name
		if _, ok := index[base]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if cut, found := strings.CutSuffix(sample.Name, suffix); found {
					if i, ok := index[cut]; ok && out[i].Type == "histogram" {
						base = cut
						break
					}
				}
			}
		}
		f := family(base)
		f.Samples = append(f.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// scanLF splits lines at '\n' only. bufio.ScanLines would also drop a
// '\r' before it, which is HELP text's own: the format escapes only
// backslash and newline, so a help ending in '\r' renders it as is.
func scanLF(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
func parseSampleLine(line string) (ParsedSample, error) {
	var s ParsedSample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		s.Labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: %w", line, err)
	}
	s.Value = v // an optional trailing timestamp is ignored
	return s, nil
}

// parseLabels consumes `name="value",...}` and returns the remainder
// of the line after the closing brace.
func parseLabels(rest string) ([]ParsedLabel, string, error) {
	var labels []ParsedLabel
	for {
		rest = strings.TrimLeft(rest, " ,")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label in %q", rest)
		}
		name := rest[:eq]
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", name)
		}
		value, remainder, err := parseQuoted(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %w", name, err)
		}
		labels = append(labels, ParsedLabel{Name: name, Value: value})
		rest = remainder
	}
}

// parseQuoted consumes an escaped label value up to its closing quote.
func parseQuoted(rest string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; c {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch rest[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(rest[i])
			default:
				// Unknown escapes pass through verbatim per the format.
				b.WriteByte('\\')
				b.WriteByte(rest[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// unescapeHelp reverses escapeHelp.
func unescapeHelp(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
