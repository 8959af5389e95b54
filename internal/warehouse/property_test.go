package warehouse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyKeyEncodingInjective: distinct composite keys are
// distinct keys of the index (otherwise two different primary keys
// would collide), and equal ones are one key.
func TestPropertyKeyEncodingInjective(t *testing.T) {
	f := func(a1, a2 int64, b1, b2 string) bool {
		db := Open("p")
		tab, err := db.EnsureSchema("s").EnsureTable(TableDef{
			Name:       "t",
			Columns:    []Column{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeString}, {Name: "n", Type: TypeInt}},
			PrimaryKey: []string{"a", "b"},
		})
		if err != nil {
			return false
		}
		var err2 error
		db.Do(func() error {
			if err := tab.InsertRow([]any{a1, b1, int64(1)}); err != nil {
				return err
			}
			err2 = tab.InsertRow([]any{a2, b2, int64(2)})
			return nil
		})
		r1, ok1 := tab.GetByKey(a1, b1)
		r2, ok2 := tab.GetByKey(a2, b2)
		if a1 == a2 && b1 == b2 {
			return err2 != nil && ok1 && r1.Int("n") == 1 && tab.Len() == 1
		}
		return err2 == nil && ok1 && ok2 && r1.Int("n") == 1 && r2.Int("n") == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if !f(1, 1, "x", "x") {
		t.Error("an equal key inserted twice")
	}
}

// TestPropertySnapshotRoundTrip: snapshot → restore must preserve every
// row for arbitrary integer/float/string data.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	f := func(ids []int16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := Open("p")
		s := db.EnsureSchema("s")
		tab, err := s.EnsureTable(TableDef{
			Name: "t",
			Columns: []Column{
				{Name: "id", Type: TypeInt},
				{Name: "v", Type: TypeFloat},
				{Name: "s", Type: TypeString, Nullable: true},
			},
			PrimaryKey: []string{"id"},
		})
		if err != nil {
			return false
		}
		seen := map[int64]bool{}
		db.Do(func() error {
			for _, id := range ids {
				if seen[int64(id)] {
					continue
				}
				seen[int64(id)] = true
				var sv any
				if rng.Intn(4) > 0 {
					sv = fmt.Sprintf("s%x", rng.Int63())
				}
				tab.Insert(map[string]any{"id": int64(id), "v": rng.NormFloat64(), "s": sv})
			}
			return nil
		})
		var buf bytes.Buffer
		if err := db.Snapshot(&buf); err != nil {
			return false
		}
		dst := Open("q")
		if _, err := restore(dst, &buf); err != nil {
			return false
		}
		if dst.Count("s", "t") != db.Count("s", "t") {
			return false
		}
		ok := true
		dtab, _ := dst.TableIn("s", "t")
		db.View(func() error {
			tab.Scan(func(r Row) bool {
				dr, found := dtab.GetByKey(r.Int("id"))
				if !found || dr.Float("v") != r.Float("v") || dr.String("s") != r.String("s") {
					ok = false
					return false
				}
				return true
			})
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyApplyReplaysToIdenticalState: replaying a random sequence
// of inserts/updates/deletes through the binlog must leave a replica in
// a state identical to the source (the core replication invariant).
func TestPropertyApplyReplaysToIdenticalState(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := Open("src")
		s := src.EnsureSchema("s")
		tab, _ := s.EnsureTable(TableDef{
			Name: "t",
			Columns: []Column{
				{Name: "id", Type: TypeInt},
				{Name: "v", Type: TypeInt},
			},
			PrimaryKey: []string{"id"},
		})
		src.Do(func() error {
			for i := 0; i < int(nOps); i++ {
				id := int64(rng.Intn(20))
				switch rng.Intn(3) {
				case 0:
					tab.Upsert(map[string]any{"id": id, "v": rng.Int63n(1000)})
				case 1:
					tab.DeleteByKey(id)
				case 2:
					if _, ok := tab.GetByKey(id); ok {
						updateCols(tab, id, map[string]any{"v": rng.Int63n(1000)})
					}
				}
			}
			return nil
		})
		dst := Open("dst")
		evs, err := src.Binlog().ReadFrom(0, 0)
		if err != nil {
			return false
		}
		for _, ev := range evs {
			if err := applyOne(dst, ev); err != nil {
				return false
			}
		}
		if dst.Count("s", "t") != src.Count("s", "t") {
			return false
		}
		ok := true
		dtab, _ := dst.TableIn("s", "t")
		src.View(func() error {
			tab.Scan(func(r Row) bool {
				dr, found := dtab.GetByKey(r.Int("id"))
				if !found || dr.Int("v") != r.Int("v") {
					ok = false
					return false
				}
				return true
			})
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBinlogLSNsMonotonic: appended events always receive
// strictly increasing LSNs, regardless of trimming in between.
func TestPropertyBinlogLSNsMonotonic(t *testing.T) {
	f := func(ops []bool) bool {
		b := NewBinlog()
		var last uint64
		for _, isTrim := range ops {
			if isTrim {
				b.Trim(last)
				continue
			}
			lsn := b.Append(Event{Kind: EvInsert, Schema: "s", Table: "t"})
			if lsn <= last {
				return false
			}
			last = lsn
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
