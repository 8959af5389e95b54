package aggregate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// randomAccRows builds n accumulators of the codec's layout with
// distinct keys, holding exactly the state the layout stores: last_ts
// only when it stores lasts, and then from a pool of three values, so
// many groups tie. Every fifth group is all zeros with n = 0.
func randomAccRows(c *aggCodec, rng *rand.Rand, n int) map[string]*accRow {
	groups := make(map[string]*accRow, n)
	lastTS := []float64{1483228800, 1483228800.5, 0}
	for i := 0; i < n; i++ {
		acc := c.l.newAcc()
		acc.periodKey = int64(20170101 + i%28)
		acc.dims = make([]string, c.nd)
		for d := range acc.dims {
			acc.dims[d] = fmt.Sprintf("v%d", rng.Intn(4))
		}
		acc.dims[0] = fmt.Sprintf("g%d", i) // keeps the key unique
		if i%5 != 0 {
			acc.n = rng.Int63()
			if c.l.lastTS {
				acc.lastTS = lastTS[rng.Intn(len(lastTS))]
			}
			for j := range acc.state {
				acc.state[j] = randomCodecFloat(rng)
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
		{"state", want.state, got.state},
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

// TestAggCodecRoundTrip: whichever way a group is written — a keyed
// batch upsert over new keys, over a mix of existing and new keys, or a
// bulk load — the reader returns exactly the stored state that went in,
// both at a scan position of the published snapshot and at the position
// an upsert's key probe hands its fill hook in the writer state. The
// realms cover a layout with lasts (Storage) and ones without.
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
			// Half the keys, holding other values: what the mixed upsert replaces.
			stale := make(map[string]*accRow)
			for k, acc := range groups {
				if len(stale) == len(groups)/2 {
					break
				}
				o := c.l.newAcc()
				o.periodKey, o.dims, o.n = acc.periodKey, acc.dims, ^acc.n
				if c.l.lastTS {
					o.lastTS = acc.lastTS + 1
				}
				for j := range o.state {
					o.state[j] = acc.state[(j+1)%len(o.state)]
				}
				stale[k] = &o
			}

			upsert := func(cd *warehouse.ColumnData) error { return tab.UpsertColumns(cd, nil) }
			check := func(how string, want map[string]*accRow) {
				t.Helper()
				seen := 0
				td := tab.Data()
				r, err := c.reader(td)
				if err != nil {
					t.Fatal(err)
				}
				for pos := 0; pos < td.Rows(); pos++ {
					if td.Tombstones()[pos] {
						continue
					}
					got := r.accAt(pos)
					w := want[string(groupKey(nil, got.periodKey, got.dims))]
					if w == nil {
						t.Fatalf("%s: accAt returned unknown group %d %v", how, got.periodKey, got.dims)
					}
					if d := diffAccBits(w, got); d != "" {
						t.Fatalf("%s, accAt: %s", how, d)
					}
					seen++
				}
				if seen != len(want) {
					t.Fatalf("%s: read back %d groups, wrote %d", how, seen, len(want))
				}
				// The keyed probe: an upsert of every key whose fill loads the
				// row each one replaces, then refuses the payload.
				dd := newDimDicts(c.nd, len(groups))
				var codes []uint32
				accs := make([]*accRow, 0, len(groups))
				for _, acc := range groups {
					codes = dd.intern(codes, acc.dims)
					accs = append(accs, acc)
				}
				probe := c.newColumns(len(groups), dd)
				for i, acc := range accs {
					probe.putKey(i, acc.periodKey, codes[i*c.nd:(i+1)*c.nd])
				}
				errProbed := errors.New("probed")
				err = db.Do(func() error {
					return tab.UpsertColumns(probe.cd, func(i, replaced int) error {
						acc := accs[i]
						w := want[string(groupKey(nil, acc.periodKey, acc.dims))]
						if (replaced >= 0) != (w != nil) {
							t.Fatalf("%s: group %d %v replaces %d, stored: %v", how, acc.periodKey, acc.dims, replaced, w != nil)
						}
						if w != nil {
							r, err := c.reader(tab.View())
							if err != nil {
								t.Fatal(err)
							}
							got := c.l.newAcc()
							got.periodKey, got.dims = acc.periodKey, acc.dims
							r.load(replaced, &got)
							if d := diffAccBits(w, &got); d != "" {
								t.Fatalf("%s, load: %s", how, d)
							}
						}
						if i == len(accs)-1 {
							return errProbed
						}
						return nil
					})
				})
				if err != errProbed {
					t.Fatalf("%s: the probe ended with %v", how, err)
				}
			}

			for _, step := range []struct {
				how    string
				write  func(*warehouse.ColumnData) error
				groups map[string]*accRow
			}{
				{"columns + UpsertColumns, new keys", upsert, stale},
				{"columns + UpsertColumns, existing and new keys", upsert, groups},
				{"columns + ReplaceAllColumns", tab.ReplaceAllColumns, groups},
			} {
				err := db.Do(func() error { return step.write(c.columns(step.groups)) })
				if err != nil {
					t.Fatal(err)
				}
				check(step.how, step.groups)
			}
		})
	}
}

// TestAggCodecReaderRefusesWrongType: the reader takes vectors by
// layout position without looking names up, so a table whose column at
// a position has another type than the layout's is refused, naming the
// column, and not read as the layout's state.
func TestAggCodecReaderRefusesWrongType(t *testing.T) {
	info := jobs.RealmInfo()
	c := newAggCodec(info)
	def := aggDef(info, c.l, Day)
	last := len(def.Columns) - 1
	def.Columns[last].Type = warehouse.TypeInt // a state column stored as an integer
	db := warehouse.Open("codectest")
	tab, err := db.EnsureSchema("odd").EnsureTable(def)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]any, len(def.Columns))
	for i, col := range def.Columns {
		switch col.Type {
		case warehouse.TypeInt:
			row[i] = int64(1)
		case warehouse.TypeFloat:
			row[i] = 1.0
		default:
			row[i] = "v"
		}
	}
	if err := db.InsertRow("odd", def.Name, row); err != nil {
		t.Fatal(err)
	}
	_, err = c.reader(tab.Data())
	if err == nil || !strings.Contains(err.Error(), def.Columns[last].Name) {
		t.Fatalf("reader over a mistyped column: err = %v, want one naming %q", err, def.Columns[last].Name)
	}
}
