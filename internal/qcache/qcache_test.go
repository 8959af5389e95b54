package qcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedCache builds a cache whose every value costs exactly its int
// value in bytes.
func fixedCache(t testing.TB, maxBytes int64) *Cache[int] {
	t.Helper()
	return New[int](Config{Name: t.Name(), MaxBytes: maxBytes},
		func(v int) int { return v })
}

func fill(v int) func() (int, error) {
	return func() (int, error) { return v, nil }
}

func mustGet(t *testing.T, c *Cache[int], key string, epoch uint64, v int) (got int, hit bool) {
	t.Helper()
	got, hit, err := c.GetOrCompute(key, epoch, fill(v))
	if err != nil {
		t.Fatalf("GetOrCompute(%q): %v", key, err)
	}
	return got, hit
}

func TestHitAndMiss(t *testing.T) {
	c := fixedCache(t, 1<<20)
	if v, hit := mustGet(t, c, "k", 1, 42); hit || v != 42 {
		t.Fatalf("first lookup: got v=%d hit=%v, want 42, miss", v, hit)
	}
	if v, hit := mustGet(t, c, "k", 1, 99); !hit || v != 42 {
		t.Fatalf("second lookup: got v=%d hit=%v, want cached 42, hit", v, hit)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 fill / 1 entry", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := fixedCache(t, 1<<20)
	mustGet(t, c, "k", 1, 10)
	// Same key, newer epoch: the old entry must not be served.
	if v, hit := mustGet(t, c, "k", 2, 20); hit || v != 20 {
		t.Fatalf("post-bump lookup: got v=%d hit=%v, want recomputed 20", v, hit)
	}
	// The stale entry was dropped, not kept alongside.
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after epoch bump, want 1", st.Entries)
	}
	// An older epoch must not be served either (no time travel).
	if _, hit := mustGet(t, c, "k", 1, 30); hit {
		t.Fatal("lookup at older epoch served the newer entry")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Each entry costs 100 (value) + 1 (key) + overhead; cap fits 3.
	per := int64(100 + 1 + entryOverhead)
	c := fixedCache(t, 3*per)
	mustGet(t, c, "a", 1, 100)
	mustGet(t, c, "b", 1, 100)
	mustGet(t, c, "c", 1, 100)
	// Touch a so b becomes the coldest.
	if _, hit := mustGet(t, c, "a", 1, 0); !hit {
		t.Fatal("touching a missed")
	}
	mustGet(t, c, "d", 1, 100)
	if _, hit := mustGet(t, c, "b", 1, 0); hit {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
}

func TestByteAccounting(t *testing.T) {
	c := fixedCache(t, 1<<20)
	mustGet(t, c, "a", 1, 1000)
	mustGet(t, c, "bb", 1, 2000)
	want := int64(1000+1+entryOverhead) + int64(2000+2+entryOverhead)
	if st := c.Stats(); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	c := fixedCache(t, 1000)
	if v, hit := mustGet(t, c, "big", 1, 5000); hit || v != 5000 {
		t.Fatalf("oversize compute: got v=%d hit=%v", v, hit)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize value was cached: %+v", st)
	}
	// Still computed correctly every time.
	if _, hit := mustGet(t, c, "big", 1, 5000); hit {
		t.Fatal("oversize value served from cache")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := fixedCache(t, 1<<20)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", 1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	if v, hit := mustGet(t, c, "k", 1, 7); hit || v != 7 {
		t.Fatalf("recovery lookup: got v=%d hit=%v", v, hit)
	}
}

func TestCoalescing(t *testing.T) {
	c := fixedCache(t, 1<<20)
	const n = 16
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", 1, func() (int, error) {
				once.Do(func() { close(started) })
				<-gate
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got v=%d err=%v", v, err)
			}
		}()
	}
	<-started // the single fill is in flight
	// Give the remaining goroutines time to reach the inflight check.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	st := c.Stats()
	if st.Fills != 1 {
		t.Fatalf("fills = %d, want 1 (coalescing failed)", st.Fills)
	}
	if st.Coalesced+st.Misses != n {
		t.Fatalf("coalesced(%d) + misses(%d) != %d", st.Coalesced, st.Misses, n)
	}
	if st.Coalesced < n-2 {
		t.Fatalf("coalesced = %d, want ~%d", st.Coalesced, n-1)
	}
}

func TestCoalescingRespectsEpoch(t *testing.T) {
	c := fixedCache(t, 1<<20)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute("k", 1, func() (int, error) {
			close(started)
			<-gate
			return 10, nil
		})
	}()
	<-started
	// A reader at a NEWER epoch must not join the epoch-1 flight: the
	// in-flight result may predate the write that bumped the epoch.
	v, hit, err := c.GetOrCompute("k", 2, fill(20))
	if err != nil || hit || v != 20 {
		t.Fatalf("newer-epoch lookup joined stale flight: v=%d hit=%v err=%v", v, hit, err)
	}
	close(gate)
	<-done
	// The epoch-1 flight finished last but must not clobber the
	// epoch-2 entry.
	if v, hit := mustGet(t, c, "k", 2, 99); !hit || v != 20 {
		t.Fatalf("epoch-2 entry lost: v=%d hit=%v", v, hit)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](Config{Name: t.Name(), MaxBytes: 1 << 16},
		func(v int) int { return 64 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%50)
				epoch := uint64(i % 3)
				v, _, err := c.GetOrCompute(key, epoch, fill(i%50))
				if err != nil {
					t.Errorf("GetOrCompute: %v", err)
					return
				}
				if v != i%50 {
					t.Errorf("key %s: got %d, want %d", key, v, i%50)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
}

func TestPeekStale(t *testing.T) {
	c := fixedCache(t, 1<<20)
	if _, _, ok := c.PeekStale("k"); ok {
		t.Fatal("peek on empty cache reported a value")
	}
	mustGet(t, c, "k", 1, 42)
	// Fresh entry peeks too (the caller decides whether to use it).
	if v, ep, ok := c.PeekStale("k"); !ok || v != 42 || ep != 1 {
		t.Fatalf("fresh peek: v=%d ep=%d ok=%v", v, ep, ok)
	}
	// After an epoch bump GetOrCompute would recompute, but under shed
	// nothing does — PeekStale still serves the epoch-1 value and
	// reports which epoch it came from.
	if v, ep, ok := c.PeekStale("k"); !ok || v != 42 || ep != 1 {
		t.Fatalf("stale peek: v=%d ep=%d ok=%v", v, ep, ok)
	}
	if st := c.Stats(); st.StaleHits != 2 {
		t.Fatalf("StaleHits = %d, want 2", st.StaleHits)
	}
	// An admitted recompute at the new epoch replaces the entry; the
	// peek then reflects the fresh epoch.
	mustGet(t, c, "k", 2, 77)
	if v, ep, ok := c.PeekStale("k"); !ok || v != 77 || ep != 2 {
		t.Fatalf("post-recompute peek: v=%d ep=%d ok=%v", v, ep, ok)
	}
}

// TestMaxBytesBoundsTheWholeCache: Config.MaxBytes is the capacity of
// the cache as a whole, so a value of a tenth of it is cacheable and
// eleven values of nearly a tenth each all stay.
func TestMaxBytesBoundsTheWholeCache(t *testing.T) {
	c := New[int](Config{Name: t.Name(), MaxBytes: 1 << 20}, func(v int) int { return v })
	mustGet(t, c, "big", 1, 100<<10)
	if _, hit := mustGet(t, c, "big", 1, 100<<10); !hit {
		t.Fatalf("a 100 KiB value in a 1 MiB cache was not cached: %+v", c.Stats())
	}

	c = New[int](Config{Name: t.Name() + "/eleven", MaxBytes: 1 << 20}, func(v int) int { return v })
	for i := 0; i < 11; i++ {
		mustGet(t, c, fmt.Sprintf("k%02d", i), 1, 90<<10)
	}
	st := c.Stats()
	if st.Entries != 11 || st.Evictions != 0 {
		t.Fatalf("eleven 90 KiB values in a 1 MiB cache: %+v, want 11 entries and no evictions", st)
	}
	for i := 0; i < 11; i++ {
		if _, hit := mustGet(t, c, fmt.Sprintf("k%02d", i), 1, 0); !hit {
			t.Fatalf("k%02d was not kept", i)
		}
	}
}
