package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtLabel is Period.Label as it was written with fmt, the oracle for
// TestAppendLabelMatchesFmt.
func fmtLabel(p Period, key int64) string {
	switch p {
	case Day:
		return fmt.Sprintf("%04d-%02d-%02d", key/10000, (key/100)%100, key%100)
	case Month:
		return fmt.Sprintf("%04d-%02d", key/100, key%100)
	case Quarter:
		return fmt.Sprintf("%04d Q%d", key/10, key%10)
	case Year:
		return fmt.Sprintf("%04d", key)
	default:
		return fmt.Sprintf("%d", key)
	}
}

// TestAppendLabelMatchesFmt holds AppendLabel and Label to fmt's
// zero-padded forms for every period (and an invalid one), over key 0,
// short, negative and extreme keys and random keys of every size.
func TestAppendLabelMatchesFmt(t *testing.T) {
	keys := []int64{0, 1, -1, 5, -5, 9, 10, -10, 99, 100, 999, -999, 1000, 9999, 10000, -10000,
		2017, 20173, 201708, 20170815, -20170815, 123456789, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := r.Int63() >> uint(r.Intn(63))
		if r.Intn(2) == 0 {
			k = -k
		}
		keys = append(keys, k)
	}
	for _, p := range []Period{Day, Month, Quarter, Year, 0, 9} {
		for _, k := range keys {
			want := fmtLabel(p, k)
			if got := string(p.AppendLabel([]byte("x"), k)); got != "x"+want {
				t.Fatalf("%v.AppendLabel(%d) = %q, want %q", p, k, got, "x"+want)
			}
			if got := p.Label(k); got != want {
				t.Fatalf("%v.Label(%d) = %q, want %q", p, k, got, want)
			}
		}
	}
}
