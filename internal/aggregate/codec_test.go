package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xdmodfed/internal/realm"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
)

// codecFloats are the magnitudes a stored accumulator must survive
// unchanged: both zeros, the extremes of the float64 range, and values
// whose low mantissa bits a decimal detour would lose.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -2.0 / 3,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e300, 1e-300, 4.9e-320, 1 << 53, 1<<53 + 2, 1700000000.123456789,
}

func randomCodecFloat(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return codecFloats[rng.Intn(len(codecFloats))]
	}
	return math.Float64frombits(rng.Uint64()>>12 | uint64(rng.Intn(2046)+1)<<52 | uint64(rng.Intn(2))<<63)
}

// randomAccRows builds n accumulators of the codec's shape with
// distinct keys. last_ts comes from a pool of three values, so many
// groups tie; every fifth group is all zeros with n = 0.
func randomAccRows(c *aggCodec, rng *rand.Rand, n int) map[string]*accRow {
	groups := make(map[string]*accRow, n)
	lastTS := []float64{1483228800, 1483228800.5, 0}
	for i := 0; i < n; i++ {
		acc := c.newAcc()
		acc.periodKey = int64(20170101 + i%28)
		acc.dims = make([]string, c.nd)
		for d := range acc.dims {
			acc.dims[d] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		acc.dims[0] = fmt.Sprintf("g%d", i) // keeps the key unique
		if i%5 != 0 {
			acc.n = rng.Int63()
			acc.lastTS = lastTS[rng.Intn(len(lastTS))]
			for _, vec := range [][]float64{acc.sums, acc.mins, acc.maxs, acc.lasts, acc.wsums} {
				for j := range vec {
					vec[j] = randomCodecFloat(rng)
				}
			}
		}
		groups[string(groupKey(nil, acc.periodKey, acc.dims))] = &acc
	}
	return groups
}

func diffAccBits(want, got *accRow) string {
	if want.periodKey != got.periodKey || fmt.Sprint(want.dims) != fmt.Sprint(got.dims) || want.n != got.n {
		return fmt.Sprintf("key/count (%d %v n=%d) vs (%d %v n=%d)",
			want.periodKey, want.dims, want.n, got.periodKey, got.dims, got.n)
	}
	vecs := []struct {
		name      string
		want, got []float64
	}{
		{"last_ts", []float64{want.lastTS}, []float64{got.lastTS}},
		{"sums", want.sums, got.sums}, {"mins", want.mins, got.mins}, {"maxs", want.maxs, got.maxs},
		{"lasts", want.lasts, got.lasts}, {"wsums", want.wsums, got.wsums},
	}
	for _, v := range vecs {
		if len(v.want) != len(v.got) {
			return fmt.Sprintf("%s: %d values vs %d", v.name, len(v.want), len(v.got))
		}
		for i := range v.want {
			if math.Float64bits(v.want[i]) != math.Float64bits(v.got[i]) {
				return fmt.Sprintf("%s[%d]: %x vs %x (%g vs %g)", v.name, i,
					math.Float64bits(v.want[i]), math.Float64bits(v.got[i]), v.want[i], v.got[i])
			}
		}
	}
	return ""
}

// TestAggCodecRoundTrip: whichever way a group is written — row by row
// through the positional upsert or in bulk through the columnar load —
// both readers return exactly the accumulator that went in.
func TestAggCodecRoundTrip(t *testing.T) {
	for _, info := range []realm.Info{jobs.RealmInfo(), cloud.RealmInfo(), storage.RealmInfo()} {
		t.Run(info.Name, func(t *testing.T) {
			db := warehouse.Open("codectest")
			eng, err := New(db, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Setup(info); err != nil {
				t.Fatal(err)
			}
			tab, err := db.TableIn(AggSchema(info), AggTableName(info.FactTable, Day))
			if err != nil {
				t.Fatal(err)
			}
			c := newAggCodec(info)
			groups := randomAccRows(c, rand.New(rand.NewSource(7)), 200)

			check := func(how string) {
				t.Helper()
				seen := 0
				td := tab.Data()
				for i := 0; i < td.NumChunks(); i++ {
					ch := td.Chunk(i)
					r, err := c.reader(ch)
					if err != nil {
						t.Fatal(err)
					}
					for pos := 0; pos < ch.Rows(); pos++ {
						if ch.Tombstones()[pos] {
							continue
						}
						got := r.accAt(pos)
						want := groups[string(groupKey(nil, got.periodKey, got.dims))]
						if want == nil {
							t.Fatalf("%s: accAt returned unknown group %d %v", how, got.periodKey, got.dims)
						}
						if d := diffAccBits(want, got); d != "" {
							t.Fatalf("%s, accAt: %s", how, d)
						}
						seen++
					}
				}
				if seen != len(groups) {
					t.Fatalf("%s: read back %d groups, wrote %d", how, seen, len(groups))
				}
				db.View(func() error {
					got := c.newAcc()
					for _, want := range groups {
						key := []any{want.periodKey}
						for _, d := range want.dims {
							key = append(key, d)
						}
						row, ok := tab.GetByKey(key...)
						if !ok {
							t.Fatalf("%s: group %d %v not found by key", how, want.periodKey, want.dims)
						}
						got.periodKey, got.dims = want.periodKey, want.dims
						c.load(row, &got)
						if d := diffAccBits(want, &got); d != "" {
							t.Fatalf("%s, load: %s", how, d)
						}
					}
					return nil
				})
			}

			err = db.DoSchema(AggSchema(info), func() error {
				buf := make([]any, len(c.names))
				for _, acc := range groups {
					if err := tab.UpsertRow(c.row(acc, buf)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check("row + UpsertRow")

			err = db.DoSchema(AggSchema(info), func() error {
				return tab.ReplaceAllColumns(c.columns(groups))
			})
			if err != nil {
				t.Fatal(err)
			}
			check("columns + ReplaceAllColumns")
		})
	}
}
