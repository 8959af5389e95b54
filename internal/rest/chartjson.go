package rest

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"xdmodfed/internal/aggregate"
)

// encodeChartJSON renders the /api/chart JSON body for series, naming
// the realm and metric when a value cannot be encoded.
func encodeChartJSON(p chartParams, series []aggregate.Series, explain *QueryStat) ([]byte, error) {
	n := 128 + len(p.realm) + len(p.req.MetricID)
	for _, ser := range series {
		n += 80 + len(ser.Group) + 64*len(ser.Points)
	}
	b, err := appendChartJSON(make([]byte, 0, n), p, series, explain)
	if err != nil {
		return nil, fmt.Errorf("chart %s/%s: %w", p.realm, p.req.MetricID, err)
	}
	return b, nil
}

// appendChartJSON appends the /api/chart JSON document to b: the bytes
// json.Encoder writes for a chartResponse, trailing newline included,
// without reflection. Empty series and point lists are null, as a nil
// slice encodes; explain, when present, is encoded by json.Marshal. A
// non-finite value is an error, as it is to encoding/json.
func appendChartJSON(b []byte, p chartParams, series []aggregate.Series, explain *QueryStat) ([]byte, error) {
	b = append(b, `{"realm":`...)
	b = appendJSONString(b, p.realm)
	b = append(b, `,"metric":`...)
	b = appendJSONString(b, p.req.MetricID)
	b = append(b, `,"period":`...)
	b = appendJSONString(b, p.req.Period.String())
	b = append(b, `,"series":`...)
	if len(series) == 0 {
		b = append(b, "null"...)
	}
	var err error
	for si, ser := range series {
		if si == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"group":`...)
		b = appendJSONString(b, ser.Group)
		b = append(b, `,"aggregate":`...)
		if b, err = appendJSONFloat(b, ser.Aggregate); err != nil {
			return nil, err
		}
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, ser.N, 10)
		b = append(b, `,"points":`...)
		if len(ser.Points) == 0 {
			b = append(b, "null"...)
		}
		for pi, pt := range ser.Points {
			if pi == 0 {
				b = append(b, `[{"period":"`...)
			} else {
				b = append(b, `,{"period":"`...)
			}
			// A label is digits, '-', ' ' and 'Q': nothing to escape.
			b = p.req.Period.AppendLabel(b, pt.PeriodKey)
			b = append(b, `","key":`...)
			b = strconv.AppendInt(b, pt.PeriodKey, 10)
			b = append(b, `,"value":`...)
			if b, err = appendJSONFloat(b, pt.Value); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		if len(ser.Points) > 0 {
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if len(series) > 0 {
		b = append(b, ']')
	}
	if explain != nil {
		ex, err := json.Marshal(explain)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"explain":`...)
		b = append(b, ex...)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends v as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// up in magnitude, with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// "1e-07" becomes "1e-7".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// writes it with HTML escaping on: '<', '>' and '&' as \u00XX, control
// bytes as their short escape or \u00XX, each invalid UTF-8 byte as
// \ufffd, and U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
