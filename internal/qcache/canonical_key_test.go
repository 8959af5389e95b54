package qcache

import (
	"testing"

	"xdmodfed/internal/aggregate"
)

// Regression: CanonicalKey once joined filters with bare '|' and '='
// separators, so a filter VALUE containing those characters could
// render identically to a structurally different request and the two
// requests would then share one cache entry. Every caller-controlled
// component is now length-prefixed; adversarial pairs must produce
// distinct keys and distinct cache entries.
func TestCanonicalKeyCollisionPairs(t *testing.T) {
	base := aggregate.Request{MetricID: "cpu", GroupBy: "resource", Period: aggregate.Day}
	with := func(filters map[string]string) aggregate.Request {
		r := base
		r.Filters = filters
		return r
	}
	pairs := []struct {
		name string
		a, b aggregate.Request
	}{
		{
			"separator smuggled in filter value",
			with(map[string]string{"a": "x|f.b=y"}),
			with(map[string]string{"a": "x", "b": "y"}),
		},
		{
			"equals sign shifts key/value split",
			with(map[string]string{"a": "b=c"}),
			with(map[string]string{"a=b": "c"}),
		},
		{
			"value mimics the length prefix syntax",
			with(map[string]string{"a": "1:z|f.1:b=1:y"}),
			with(map[string]string{"a": "1:z", "b": "y"}),
		},
		{
			"metric id mimics the group-by field",
			aggregate.Request{MetricID: "cpu|g=3:res", GroupBy: "q", Period: aggregate.Day},
			aggregate.Request{MetricID: "cpu", GroupBy: "res", Period: aggregate.Day},
		},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			ka, kb := p.a.CanonicalKey(), p.b.CanonicalKey()
			if ka == kb {
				t.Fatalf("distinct requests share canonical key %q", ka)
			}
			// And the cache must therefore hold separate entries.
			c := New[string](Config{Name: t.Name()}, nil)
			va, _, _ := c.GetOrCompute(ka, 1, func() (string, error) { return "result-a", nil })
			vb, hit, _ := c.GetOrCompute(kb, 1, func() (string, error) { return "result-b", nil })
			if hit || va == vb {
				t.Fatalf("request b served request a's cache entry (hit=%v, vb=%q)", hit, vb)
			}
		})
	}
}

// Equal requests must render identical keys regardless of filter-map
// iteration order.
func TestCanonicalKeyDeterministic(t *testing.T) {
	mk := func() aggregate.Request {
		return aggregate.Request{
			MetricID: "cpu", GroupBy: "resource", Period: aggregate.Month,
			StartKey: 201701, EndKey: 201712,
			Filters: map[string]string{"person": "alice", "queue": "debug", "resource": "ccr"},
		}
	}
	want := mk().CanonicalKey()
	for i := 0; i < 50; i++ {
		if got := mk().CanonicalKey(); got != want {
			t.Fatalf("run %d: key %q != %q", i, got, want)
		}
	}
}
