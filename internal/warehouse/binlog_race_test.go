package warehouse

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestWaitNeverSeesPartOfACommit: Wait readers race writers committing
// transactions of 1 to 1 100 rows, many of them more than a block. Every
// batch a reader gets starts right after the position it waited from
// and has no LSN gap, and it ends where a commit ends unless the
// reader's limit cut it — at the limit inside one of the commit's
// blocks, or where a block ends when the next would not fit: a commit
// becomes visible whole.
func TestWaitNeverSeesPartOfACommit(t *testing.T) {
	db := Open("race")
	tab := mustTable(t, db, "s")
	head := db.Binlog().Last() // the schema and table DDL
	const writers, commitsEach = 2, 15
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for c := range commitsEach {
				n := 1 + rng.Intn(1100)
				err := db.Do(func() error {
					for i := range n {
						// resource names the commit, cores its size, wall the row's place in it.
						err := tab.Insert(map[string]any{"job_id": w<<40 | c<<20 | i, "user": "u",
							"resource": fmt.Sprintf("%d/%d", w, c), "cores": n, "wall": float64(i)})
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for r, limit := range []int{0, 512, 300, 7} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos, commits := head, 0
			var commit string  // the commit being read; "" between commits
			next, size := 0, 0 // the place in it of the next row, and its rows
			for commits < writers*commitsEach {
				evs, err := db.Binlog().Wait(ctx, pos, limit)
				if err != nil {
					t.Errorf("reader %d: Wait(%d, %d) after %d commits: %v", r, pos, limit, commits, err)
					return
				}
				for _, ev := range evs {
					if ev.LSN != pos+1 {
						t.Errorf("reader %d: LSN %d follows %d", r, ev.LSN, pos)
						return
					}
					pos = ev.LSN
					id, n, i := ev.Row[2].(string), int(ev.Row[3].(int64)), int(ev.Row[4].(float64))
					if (commit == "" && i != 0) || (commit != "" && (id != commit || i != next)) {
						t.Errorf("reader %d: LSN %d is row %d of commit %s, but row %d of commit %q was due", r, ev.LSN, i, id, next, commit)
						return
					}
					commit, next, size = id, i+1, n
					if next == n {
						commit, next = "", 0
						commits++
					}
				}
				// Cut by the limit: inside a block at the limit, or where one
				// of the commit's blocks ends and the next would overflow it.
				cut := len(evs) == limit ||
					limit > 0 && next%maxBlockEvents == 0 && len(evs)+min(maxBlockEvents, size-next) > limit
				if commit != "" && !cut {
					t.Errorf("reader %d: a batch of %d events up to LSN %d ends inside commit %s, at row %d, uncut by its limit %d",
						r, len(evs), pos, commit, next, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWaitReadsWholeBlocks: a reader that waits for 512 events at a
// time from inside the first block of a 5 000-event commit, passing
// back the last LSN it got, starts every read after its first on a
// block boundary — it decodes no event only to drop it — and gets every
// event of the commit once, in whole blocks.
func TestWaitReadsWholeBlocks(t *testing.T) {
	db := Open("aligned")
	tab := mustTable(t, db, "s")
	head := db.Binlog().Last()
	err := db.Do(func() error {
		for i := range 5000 {
			if err := tab.Insert(map[string]any{"job_id": i, "user": "u", "resource": "r", "cores": 1, "wall": 1.0}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := db.Binlog()
	pos := head + 100 // inside the commit's first block
	for read := 0; pos < b.Last(); read++ {
		blks, err := b.span(pos, 512)
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		if blks[0].first <= pos {
			dropped = int(pos - blks[0].first + 1)
		}
		if read > 0 && dropped > 0 {
			t.Fatalf("read %d from LSN %d decodes %d events of its first block only to drop them", read, pos, dropped)
		}
		evs, err := b.Wait(context.Background(), pos, 512)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) == 0 || len(evs) > 512 || evs[0].LSN != pos+1 || evs[len(evs)-1].LSN != blks[len(blks)-1].last() {
			t.Fatalf("read %d from LSN %d: %d events, not the whole blocks after it", read, pos, len(evs))
		}
		pos = evs[len(evs)-1].LSN
	}
	if pos != head+5000 {
		t.Fatalf("the reads end at LSN %d, want %d", pos, head+5000)
	}
}
