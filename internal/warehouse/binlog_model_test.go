package warehouse_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"xdmodfed/internal/warehouse"
)

// blockCap is the most events the binlog codes into one block.
const blockCap = 512

// TestBinlogMatchesBoxedModel drives the binlog with random commits of
// 1 to 1 500 events (so commits span several blocks) of every kind —
// row events, DDL and LOADs — and single appends, and checks every read
// against a reference log of the boxed events that the test keeps:
// ReadFrom and Wait at random positions with random limits return
// exactly the reference's events (LSNs, kinds, names, times, cells, by
// bits for floats) — whole blocks while they fit in the limit, or the
// limit's worth of the block holding the position when it alone holds
// more — and ErrPositionTrimmed exactly where the reference
// has trimmed past the position. The reference trims as the binlog is
// specified to: whole blocks of at most 512 events of one commit whose
// every event is at or below the trim position.
func TestBinlogMatchesBoxedModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := warehouse.NewBinlog()
		var ref []warehouse.Event // ref[i] has LSN i+1
		type span struct{ first, last uint64 }
		var blocks []span // every block appended, in order
		kept := 0         // blocks[kept:] are retained
		first := func() uint64 {
			if kept < len(blocks) {
				return blocks[kept].first
			}
			return uint64(len(ref)) + 1
		}
		read := func(step int) {
			last := uint64(len(ref))
			lo := uint64(0)
			if f := first(); f > 3 {
				lo = f - 3
			}
			pos := lo + uint64(rng.Int63n(int64(last+3-lo)))
			max := []int{0, 1, blockCap, 1 + rng.Intn(1100)}[rng.Intn(4)]
			var got []warehouse.Event
			var err error
			how := "ReadFrom"
			switch {
			case pos < last && rng.Intn(2) == 0:
				how = "Wait"
				got, err = b.Wait(context.Background(), pos, max)
			case rng.Intn(4) == 0:
				how = "Wait (cancelled)"
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				got, err = b.Wait(ctx, pos, max)
			default:
				got, err = b.ReadFrom(pos, max)
			}
			if pos+1 < first() {
				if !errors.Is(err, warehouse.ErrPositionTrimmed) {
					t.Fatalf("seed %d step %d: %s(%d, %d) with the first event retained at LSN %d: err %v, want ErrPositionTrimmed",
						seed, step, how, pos, max, first(), err)
				}
				return
			}
			var want []warehouse.Event
			if pos < last {
				// Whole blocks while they fit in max, or max events of the
				// block holding pos+1 when it alone holds more.
				end := last
				if max > 0 {
					end = pos + uint64(max)
					for _, k := range blocks[kept:] {
						if k.last <= pos {
							continue
						}
						if k.last > pos+uint64(max) {
							break
						}
						end = k.last
					}
					end = min(end, last)
				}
				want = ref[pos:end]
			}
			if err != nil && !(how == "Wait (cancelled)" && len(want) == 0 && errors.Is(err, context.Canceled)) {
				t.Fatalf("seed %d step %d: %s(%d, %d): %v", seed, step, how, pos, max, err)
			}
			if d := eventsDiffer(want, got); d != "" {
				t.Fatalf("seed %d step %d: %s(%d, %d) differs from the reference: %s", seed, step, how, pos, max, d)
			}
		}
		for step := 0; step < 50; step++ {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = 1 + rng.Intn(20)
			case 2:
				n = 1 + rng.Intn(600)
			default:
				n = 500 + rng.Intn(1001)
			}
			evs := randomEvents(rng, n)
			start := uint64(len(ref)) + 1
			if n == 1 && rng.Intn(2) == 0 {
				if evs[0].Time.IsZero() {
					evs[0].Time = time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
				}
				evs[0].LSN = b.Append(evs[0])
			} else {
				b.AppendCommit(evs) // numbers and stamps evs in place
			}
			ref = append(ref, evs...)
			for off := 0; off < n; off += blockCap {
				blocks = append(blocks, span{start + uint64(off), start + uint64(min(off+blockCap, n)) - 1})
			}
			if b.Last() != uint64(len(ref)) || b.Len() != len(ref)-int(first())+1 {
				t.Fatalf("seed %d step %d: Last %d, Len %d; want %d, %d", seed, step, b.Last(), b.Len(), len(ref), len(ref)-int(first())+1)
			}
			for range 4 {
				read(step)
			}
			if rng.Intn(4) == 0 {
				upTo := first() - 1 + uint64(rng.Int63n(int64(uint64(len(ref))+3-first())))
				b.Trim(upTo)
				for kept < len(blocks) && blocks[kept].last <= upTo {
					kept++
				}
				for range 2 {
					read(step)
				}
			}
		}
	}
}
