package warehouse

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// allTypesDef exercises every column type plus nullable columns.
func allTypesDef() TableDef {
	return TableDef{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "f", Type: TypeFloat},
			{Name: "s", Type: TypeString, Nullable: true},
			{Name: "b", Type: TypeBool},
			{Name: "ts", Type: TypeTime},
			{Name: "n", Type: TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"id"},
	}
}

// refRows compares a committed columnar snapshot against a row-format
// reference model (map of primary key to positional values).
func snapshotMatchesRef(t *testing.T, td *TableData, ref map[int64][]any) {
	t.Helper()
	if td.Len() != len(ref) {
		t.Fatalf("snapshot has %d live rows, reference has %d", td.Len(), len(ref))
	}
	seen := 0
	scanData(td, func(r Row) bool {
		seen++
		id := r.Int("id")
		want, ok := ref[id]
		if !ok {
			t.Fatalf("snapshot row id=%d not in reference", id)
		}
		got := r.Values()
		if len(got) != len(want) {
			t.Fatalf("id=%d: row has %d values, want %d", id, len(got), len(want))
		}
		for i := range want {
			wt, wok := want[i].(time.Time)
			gt, gok := got[i].(time.Time)
			if wok || gok {
				if wok != gok || !wt.Equal(gt) {
					t.Fatalf("id=%d col %d: got %v, want %v", id, i, got[i], want[i])
				}
				continue
			}
			if got[i] != want[i] {
				t.Fatalf("id=%d col %d: got %#v, want %#v", id, i, got[i], want[i])
			}
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("scan visited %d rows, want %d", seen, len(ref))
	}
}

// TestPropertyColumnarScanMatchesRowReference drives a table through
// random insert/upsert/update/delete/truncate sequences while
// maintaining a plain row-format reference model, checking after every
// transaction that the committed columnar snapshot holds exactly the
// reference rows. This is the storage refactor's ground-truth test:
// whatever the physical layout does (append-only vectors, tombstones,
// compaction), the logical table must match the naive model.
func TestPropertyColumnarScanMatchesRowReference(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := Open("p")
		s := db.EnsureSchema("s")
		tab, err := s.EnsureTable(allTypesDef())
		if err != nil {
			t.Error(err)
			return false
		}
		ref := map[int64][]any{}
		randRow := func(id int64) []any {
			var sv any
			if rng.Intn(4) == 0 {
				sv = nil
			} else {
				sv = string(rune('a' + rng.Intn(26)))
			}
			var nv any
			if rng.Intn(3) == 0 {
				nv = nil
			} else {
				nv = int64(rng.Intn(100))
			}
			return []any{
				id,
				rng.NormFloat64(),
				sv,
				rng.Intn(2) == 0,
				time.Unix(rng.Int63n(1<<31), 0).UTC(),
				nv,
			}
		}
		for i := 0; i < int(steps); i++ {
			err := db.Do(func() error {
				for j := 0; j < 1+rng.Intn(8); j++ {
					id := int64(rng.Intn(40))
					switch op := rng.Intn(10); {
					case op < 4: // upsert (insert or replace)
						row := randRow(id)
						if err := tab.UpsertRow(row); err != nil {
							return err
						}
						ref[id] = row
					case op < 6: // insert only if new
						if _, ok := ref[id]; ok {
							break
						}
						row := randRow(id)
						if err := tab.InsertRow(row); err != nil {
							return err
						}
						ref[id] = row
					case op < 8: // delete
						deleted := tab.DeleteByKey(id)
						if _, ok := ref[id]; ok != deleted {
							t.Errorf("DeleteByKey(%d) = %v, reference has row: %v", id, deleted, ok)
						}
						delete(ref, id)
					case op < 9: // update one column
						if _, ok := ref[id]; !ok {
							break
						}
						v := rng.NormFloat64()
						if err := updateCols(tab, id, map[string]any{"f": v}); err != nil {
							return err
						}
						ref[id][1] = v
					default: // rare truncate
						if rng.Intn(10) == 0 {
							tab.Truncate()
							ref = map[int64][]any{}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return false
			}
			snapshotMatchesRef(t, tab.Data(), ref)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotIsolationUnderConcurrentWriter pins the refactor's core
// guarantee: a reader's snapshot is immutable while writers commit.
// The writer moves value between two rows keeping the table-wide sum
// constant and interleaves deletes and re-inserts; readers grab
// snapshots mid-commit and must always observe (a) the invariant sum
// and (b) a stable row set even when rows are deleted while their scan
// is in progress. Run under -race this also proves the reader path
// takes no locks that the writer invalidates.
func TestSnapshotIsolationUnderConcurrentWriter(t *testing.T) {
	db := Open("iso")
	s := db.EnsureSchema("s")
	tab, err := s.EnsureTable(TableDef{
		Name: "acct",
		Columns: []Column{
			{Name: "id", Type: TypeInt},
			{Name: "bal", Type: TypeFloat},
		},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const nRows, total = 16, float64(1600)
	if err := db.Do(func() error {
		for i := 0; i < nRows; i++ {
			if err := tab.InsertRow([]any{int64(i), total / nRows}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: conserve the sum across every commit
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, b := int64(rng.Intn(nRows)), int64(rng.Intn(nRows))
			if a == b {
				continue
			}
			db.Do(func() error {
				ra, okA := tab.GetByKey(a)
				rb, okB := tab.GetByKey(b)
				if !okA || !okB {
					return nil
				}
				amt := rng.Float64()
				balA, balB := ra.Float("bal"), rb.Float("bal")
				// Delete and re-insert one side so tombstones churn too.
				tab.DeleteByKey(a)
				if err := tab.InsertRow([]any{a, balA - amt}); err != nil {
					return err
				}
				return tab.UpsertRow([]any{b, balB + amt})
			})
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				td := tab.Data()
				sum1, count1 := scanSum(td)
				// Re-scan the same snapshot: a concurrent commit (including
				// deletes of rows this scan already visited) must not change
				// what this snapshot yields.
				sum2, count2 := scanSum(td)
				if sum1 != sum2 || count1 != count2 {
					t.Errorf("snapshot changed underfoot: sum %v->%v rows %d->%d", sum1, sum2, count1, count2)
					return
				}
				if count1 != nRows {
					t.Errorf("snapshot has %d rows, want %d", count1, nRows)
					return
				}
				if diff := sum1 - total; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("snapshot sum %v, want %v (torn read)", sum1, total)
					return
				}
			}
		}()
	}
	// Let readers and writer overlap, then stop the writer.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func scanSum(td *TableData) (sum float64, count int) {
	scanData(td, func(r Row) bool {
		sum += r.Float("bal")
		count++
		return true
	})
	return sum, count
}
