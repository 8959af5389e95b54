// Package aggregate implements XDMoD's aggregation engine. "Data
// aggregation is a key data processing step in which XDMoD pre-bins
// raw dimension data, enabling the application to respond quickly to
// complex user queries" (paper §II-C3): fact rows are rolled up into
// aggregation tables keyed by time period (day, month, quarter, year)
// and dimension values, with numeric dimensions binned into
// JSON-configured aggregation levels (Table I). Instances — and the
// federation hub — each aggregate with their own level configuration,
// and a hub can re-aggregate all raw federation data after a
// configuration change without any data loss.
package aggregate

import (
	"fmt"
	"strconv"
	"time"
)

// Period is an aggregation time granularity.
type Period int

// Aggregation periods. XDMoD maintains day/month/quarter/year tables.
const (
	Day Period = iota + 1
	Month
	Quarter
	Year
)

// Periods lists all supported periods.
func Periods() []Period { return []Period{Day, Month, Quarter, Year} }

// String returns the period name.
func (p Period) String() string {
	switch p {
	case Day:
		return "day"
	case Month:
		return "month"
	case Quarter:
		return "quarter"
	case Year:
		return "year"
	default:
		return fmt.Sprintf("Period(%d)", int(p))
	}
}

// Key returns the integer period key of t: YYYYMMDD for Day, YYYYMM
// for Month, YYYYQ for Quarter, YYYY for Year.
func (p Period) Key(t time.Time) int64 {
	t = t.UTC()
	y := int64(t.Year())
	switch p {
	case Day:
		return y*10000 + int64(t.Month())*100 + int64(t.Day())
	case Month:
		return y*100 + int64(t.Month())
	case Quarter:
		return y*10 + (int64(t.Month())+2)/3
	case Year:
		return y
	default:
		return 0
	}
}

// Label renders a period key for display ("2017-06", "2017 Q2", ...).
func (p Period) Label(key int64) string { return string(p.AppendLabel(nil, key)) }

// AppendLabel appends Label(key) to b. Each field is zero-padded the
// way fmt's %04d and %02d pad it, a minus sign counting toward the
// width, so a key of any value renders as Label always has.
func (p Period) AppendLabel(b []byte, key int64) []byte {
	switch p {
	case Day:
		b = appendPadded(b, key/10000, 4)
		b = append(b, '-')
		b = appendPadded(b, (key/100)%100, 2)
		b = append(b, '-')
		return appendPadded(b, key%100, 2)
	case Month:
		b = appendPadded(b, key/100, 4)
		b = append(b, '-')
		return appendPadded(b, key%100, 2)
	case Quarter:
		b = appendPadded(b, key/10, 4)
		b = append(b, " Q"...)
		return strconv.AppendInt(b, key%10, 10)
	case Year:
		return appendPadded(b, key, 4)
	default:
		return strconv.AppendInt(b, key, 10)
	}
}

// appendPadded appends v in decimal, left-padded with zeros after any
// sign to width bytes.
func appendPadded(b []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
		width--
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Parse returns the period with the given name.
func Parse(name string) (Period, error) {
	switch name {
	case "day":
		return Day, nil
	case "month":
		return Month, nil
	case "quarter":
		return Quarter, nil
	case "year":
		return Year, nil
	default:
		return 0, fmt.Errorf("aggregate: unknown period %q", name)
	}
}
