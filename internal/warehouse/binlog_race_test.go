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
// reader's limit cut it: a commit becomes visible whole.
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
			var commit string // the commit being read; "" between commits
			next := 0         // the place in it of the next row
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
					commit, next = id, i+1
					if next == n {
						commit, next = "", 0
						commits++
					}
				}
				if commit != "" && (limit == 0 || len(evs) < limit) {
					t.Errorf("reader %d: a batch of %d events up to LSN %d ends inside commit %s, at row %d, uncut by its limit %d",
						r, len(evs), pos, commit, next, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
}
