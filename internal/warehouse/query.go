package warehouse

import "fmt"

// AggFunc enumerates the aggregate functions a realm metric can apply.
type AggFunc int

// Supported aggregate functions. 4 is unused: the numbers of the
// others never changed.
const (
	AggSum AggFunc = iota + 1
	AggCount
	AggAvg
	_
	AggMax
	// AggSumLast sums, across dimension cells, each cell's most recent
	// value — the correct roll-up for snapshot-style facts (storage
	// usage), where summing every sample would overcount.
	AggSumLast
)

// String returns the SQL name of the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMax:
		return "MAX"
	case AggSumLast:
		return "SUM_LAST"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}
