package warehouse

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSchemaEpochs pins the per-schema epoch contract the query cache
// relies on: a committed transaction moves each schema it published
// into by exactly one, whatever number of that schema's tables it
// touched; other schemas and empty transactions move nothing; and
// dropping and re-creating a schema, or restoring over it, never moves
// an epoch backwards.
func TestSchemaEpochs(t *testing.T) {
	db := Open("epochs")
	a1 := mustTable(t, db, "a")
	def2 := jobsDef()
	def2.Name = "jobs2"
	a2, err := db.Schema("a").EnsureTable(def2)
	if err != nil {
		t.Fatal(err)
	}
	mustTable(t, db, "b")
	row := func(id int) map[string]any {
		return map[string]any{"job_id": id, "user": "u", "resource": "r", "cores": 1, "wall": 1.0}
	}
	type obs struct{ a, b, unknown, all uint64 }
	observe := func() obs {
		return obs{db.EpochOf("a"), db.EpochOf("b"), db.EpochOf("nope"), db.Epoch()}
	}
	step := func(how string, want obs, fn func() error) {
		t.Helper()
		before := observe()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		after := observe()
		got := obs{after.a - before.a, after.b - before.b, after.unknown - before.unknown, after.all - before.all}
		if got != want {
			t.Errorf("%s: epochs moved by %+v, want %+v", how, got, want)
		}
	}

	step("two tables of a in one transaction", obs{a: 1, all: 1}, func() error {
		return db.Do(func() error {
			for id := 1; id <= 3; id++ {
				if err := a1.Insert(row(id)); err != nil {
					return err
				}
				if err := a2.Insert(row(id)); err != nil {
					return err
				}
			}
			return nil
		})
	})
	step("one-row wrapper into b", obs{b: 1, all: 1}, func() error {
		return db.Insert("b", "jobs", row(1))
	})
	step("transaction that publishes nothing", obs{}, func() error {
		return db.Do(func() error { return nil })
	})
	step("read transaction", obs{}, func() error {
		return db.View(func() error { return nil })
	})
	step("batch apply into a and b", obs{a: 1, b: 1, all: 2}, func() error {
		_, err := db.ApplyAll([]Event{
			{Kind: EvInsert, Schema: "a", Table: "jobs", Row: []any{int64(10), "u", "r", int64(1), 1.0, nil}},
			{Kind: EvInsert, Schema: "a", Table: "jobs2", Row: []any{int64(10), "u", "r", int64(1), 1.0, nil}},
			{Kind: EvInsert, Schema: "b", Table: "jobs", Row: []any{int64(10), "u", "r", int64(1), 1.0, nil}},
		})
		return err
	})

	// Drop and re-create a: no observation may go backwards.
	last := observe()
	monotone := func(how string) {
		t.Helper()
		now := observe()
		if now.a < last.a || now.all < last.all {
			t.Errorf("%s: epochs went backwards: EpochOf(a) %d -> %d, Epoch %d -> %d",
				how, last.a, now.a, last.all, now.all)
		}
		last = now
	}
	if err := applyOne(db, Event{Kind: EvDropSchema, Schema: "a"}); err != nil {
		t.Fatal(err)
	}
	monotone("drop a")
	a1 = mustTable(t, db, "a")
	monotone("re-create a")
	if err := db.Do(func() error { return a1.Insert(row(1)) }); err != nil {
		t.Fatal(err)
	}
	monotone("write into the re-created a")
	step("write into the re-created a", obs{a: 1, all: 1}, func() error {
		return db.Insert("a", "jobs", row(2))
	})

	// A restore replaces a in place: its epoch carries on.
	var dump bytes.Buffer
	if err := snapshotSchemas(db, &dump, "a"); err != nil {
		t.Fatal(err)
	}
	last = observe()
	if _, err := restore(db, &dump); err != nil {
		t.Fatal(err)
	}
	monotone("restore over a")
}

// TestViewCapturesCommitAtomically guards the invariant DeltaFolder.Reset
// depends on: a table snapshot and the binlog head captured inside one
// View agree — the snapshot holds exactly the insert events at or below
// the captured LSN — while writers commit into several schemas and
// snapshot dumps and epoch readers run alongside.
func TestViewCapturesCommitAtomically(t *testing.T) {
	db := Open("atomic")
	schemas := []string{"a", "b"}
	tabs := map[string]*Table{}
	for _, s := range schemas {
		tabs[s] = mustTable(t, db, s)
	}
	// Writers keep committing until the readers have captured enough
	// cuts, so every capture races live commits; each capturing reader
	// stops at its quota.
	const perTxn, minViews, minDumps = 3, 2000, 10
	var views, dumps atomic.Int64

	type capture struct {
		schema string
		rows   int
		lsn    uint64
	}
	var (
		mu       sync.Mutex
		captures []capture
		errs     []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for _, s := range schemas {
		writers.Add(1)
		go func(tab *Table) {
			defer writers.Done()
			for i := 0; views.Load() < minViews || dumps.Load() < minDumps; i++ {
				err := db.Do(func() error {
					for k := 0; k < perTxn; k++ {
						err := tab.Insert(map[string]any{"job_id": i*perTxn + k, "user": "u", "resource": "r", "cores": 1, "wall": 1.0})
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					fail("insert: %v", err)
					return
				}
			}
		}(tabs[s])
	}
	readers.Add(3)
	go func() { // capture (rows, LSN) pairs
		defer readers.Done()
		for views.Load() < minViews {
			db.View(func() error {
				lsn := db.Binlog().Last()
				mu.Lock()
				for _, s := range schemas {
					captures = append(captures, capture{s, tabs[s].Data().Len(), lsn})
				}
				mu.Unlock()
				return nil
			})
			views.Add(1)
		}
	}()
	go func() { // snapshot dumps: restored rows match the recorded LSN too
		defer readers.Done()
		for dumps.Load() < minDumps {
			var buf bytes.Buffer
			if err := snapshotSchemas(db, &buf, schemas...); err != nil {
				fail("snapshot: %v", err)
				return
			}
			restored := OpenOptions("restored", Options{NoBinlog: true})
			lsn, err := restore(restored, &buf)
			if err != nil {
				fail("restore: %v", err)
				return
			}
			mu.Lock()
			for _, s := range schemas {
				captures = append(captures, capture{s, restored.Count(s, "jobs"), lsn})
			}
			mu.Unlock()
			dumps.Add(1)
		}
	}()
	go func() { // epoch readers: sequential observations never go backwards
		defer readers.Done()
		var lastA, lastAll uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			a, all := db.EpochOf("a"), db.Epoch()
			if a < lastA || all < lastAll {
				fail("epochs went backwards: EpochOf(a) %d -> %d, Epoch %d -> %d", lastA, a, lastAll, all)
				return
			}
			lastA, lastAll = a, all
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, e := range errs {
		t.Error(e)
	}

	// Replay the log: for each schema, the LSNs of its insert events.
	evs, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inserts := map[string][]uint64{}
	for _, ev := range evs {
		if ev.Kind == EvInsert {
			inserts[ev.Schema] = append(inserts[ev.Schema], ev.LSN)
		}
	}
	for _, c := range captures {
		lsns := inserts[c.schema] // ascending
		want := sort.Search(len(lsns), func(i int) bool { return lsns[i] > c.lsn })
		if c.rows != want {
			t.Fatalf("schema %s: captured %d rows at LSN %d, but %d inserts are at or below it", c.schema, c.rows, c.lsn, want)
		}
	}
}
