package admission

import (
	"container/list"
	"sync"
	"time"
)

// Token-bucket rate limiting. A Bucket admits up to Burst requests
// instantly and refills at Rate tokens per second; KeyedBuckets keeps
// one bucket per key (user, center) inside a bounded LRU so an open
// federation portal cannot be driven into unbounded memory by token
// churn alone.

// Bucket is a single token bucket. The zero value is unusable; build
// with NewBucket.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket returns a full bucket refilling at rate tokens/second up
// to burst. rate <= 0 means "unlimited": Take always succeeds.
func NewBucket(rate, burst float64) *Bucket {
	if burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}
}

// Take consumes one token at time now. When the bucket is empty it
// returns false plus the time until one token will have refilled — the
// honest Retry-After hint for the caller it refused.
func (b *Bucket) Take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.last = now
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// KeyedBuckets is a bounded collection of per-key token buckets with
// LRU eviction once maxKeys distinct keys are tracked. An evicted
// key's next request starts from a full bucket again — the bound
// trades a little limiter memory for a hard memory ceiling.
type KeyedBuckets struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	maxKeys int
	ll      *list.List // of *keyedBucket; front = most recently used
	byKey   map[string]*list.Element
}

type keyedBucket struct {
	key    string
	bucket *Bucket
}

// DefaultMaxKeys bounds how many distinct keys a KeyedBuckets tracks
// when the caller passes maxKeys <= 0.
const DefaultMaxKeys = 16384

// NewKeyedBuckets builds the collection. rate <= 0 means every key is
// unlimited (Take always succeeds without tracking anything).
func NewKeyedBuckets(rate, burst float64, maxKeys int) *KeyedBuckets {
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	return &KeyedBuckets{
		rate: rate, burst: burst, maxKeys: maxKeys,
		ll: list.New(), byKey: make(map[string]*list.Element),
	}
}

// Take consumes one token from key's bucket at time now, creating (and
// possibly evicting) buckets as needed.
func (k *KeyedBuckets) Take(key string, now time.Time) (bool, time.Duration) {
	if k.rate <= 0 {
		return true, 0
	}
	k.mu.Lock()
	el, ok := k.byKey[key]
	if !ok {
		el = k.ll.PushFront(&keyedBucket{key: key, bucket: NewBucket(k.rate, k.burst)})
		k.byKey[key] = el
		for k.ll.Len() > k.maxKeys {
			cold := k.ll.Back()
			k.ll.Remove(cold)
			delete(k.byKey, cold.Value.(*keyedBucket).key)
		}
	} else {
		k.ll.MoveToFront(el)
	}
	b := el.Value.(*keyedBucket).bucket
	k.mu.Unlock()
	return b.Take(now)
}
