package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	old := DefaultTracer
	DefaultTracer = NewTracer(16)
	defer func() { DefaultTracer = old }()

	_, sp := StartSpan(context.Background(), "op")
	tp := sp.TraceParent()
	sp.End()

	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 || parts[3] != "01" {
		t.Fatalf("wire form %q is not 00-<32hex>-<16hex>-01", tp)
	}
	tid, sid, ok := ParseTraceParent(tp)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", tp)
	}
	// Exact round trip: parse must recover the unpadded IDs.
	if tid != sp.TraceID || sid != sp.SpanID {
		t.Fatalf("parsed (%s, %s), span has (%s, %s)", tid, sid, sp.TraceID, sp.SpanID)
	}
	if (*Span)(nil).TraceParent() != "" {
		t.Fatal("nil span TraceParent not empty")
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	bad := []string{
		"",
		"not-a-traceparent",
		"00-abc-def-01", // wrong widths
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",                // reserved version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",                // bad flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",                // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",                   // missing flags
	}
	for _, tp := range bad {
		if _, _, ok := ParseTraceParent(tp); ok {
			t.Errorf("ParseTraceParent(%q) accepted", tp)
		}
	}
	// A foreign but well-formed traceparent must be accepted.
	tid, sid, ok := ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok || tid != "4bf92f3577b34da6a3ce929d0e0e4736" || sid != "f067aa0ba902b7" {
		t.Fatalf("foreign traceparent parse = (%s, %s, %v)", tid, sid, ok)
	}
}

func TestRemoteParentAdoption(t *testing.T) {
	old := DefaultTracer
	DefaultTracer = NewTracer(16)
	defer func() { DefaultTracer = old }()

	// Process A emits a span context...
	_, remote := StartSpan(context.Background(), "processA")
	tp := remote.TraceParent()
	remote.End()

	// ...and process B (simulated: fresh context) adopts it.
	ctx := ContextWithTraceParent(context.Background(), tp)
	if got := TraceParent(ctx); got != tp {
		t.Fatalf("context re-encodes %q, want %q", got, tp)
	}
	_, child := StartSpan(ctx, "processB")
	child.End()
	if child.TraceID != remote.TraceID {
		t.Errorf("child trace %s, want remote trace %s", child.TraceID, remote.TraceID)
	}
	if child.ParentID != remote.SpanID {
		t.Errorf("child parent %s, want remote span %s", child.ParentID, remote.SpanID)
	}

	// A local span in the context wins over the remote parent.
	lctx, local := StartSpan(context.Background(), "local")
	lctx = ContextWithTraceParent(lctx, tp)
	_, grand := StartSpan(lctx, "grandchild")
	grand.End()
	local.End()
	if grand.TraceID != local.TraceID || grand.ParentID != local.SpanID {
		t.Errorf("local parent lost to remote: trace %s parent %s", grand.TraceID, grand.ParentID)
	}

	// Malformed input leaves the context untouched.
	mctx := ContextWithTraceParent(context.Background(), "garbage")
	_, fresh := StartSpan(mctx, "fresh")
	fresh.End()
	if fresh.TraceID == remote.TraceID || fresh.ParentID != "" {
		t.Errorf("malformed traceparent still adopted: %+v", fresh)
	}
	if TraceParent(context.Background()) != "" {
		t.Error("empty context has a traceparent")
	}
}

func TestTracerFilter(t *testing.T) {
	tr := NewTracer(16)
	tr.record(Span{TraceID: "aaa", Name: "ingest.jobs"})
	tr.record(Span{TraceID: "aaa", Name: "replicate.send"})
	tr.record(Span{TraceID: "bbb", Name: "ingest.cloud"})
	tr.record(Span{TraceID: "aaa", Name: "hub.ApplyBatch"})

	byTrace := tr.Filter("aaa", "", 0)
	if len(byTrace) != 3 {
		t.Fatalf("trace filter kept %d spans, want 3", len(byTrace))
	}
	if byTrace[0].Name != "hub.ApplyBatch" || byTrace[2].Name != "ingest.jobs" {
		t.Errorf("trace filter order: %s ... %s", byTrace[0].Name, byTrace[2].Name)
	}
	byName := tr.Filter("", "ingest", 0)
	if len(byName) != 2 || byName[0].Name != "ingest.cloud" {
		t.Fatalf("name filter = %v", byName)
	}
	both := tr.Filter("aaa", "ingest", 0)
	if len(both) != 1 || both[0].Name != "ingest.jobs" {
		t.Fatalf("combined filter = %v", both)
	}
	limited := tr.Filter("aaa", "", 2)
	if len(limited) != 2 || limited[0].Name != "hub.ApplyBatch" {
		t.Fatalf("limited filter = %v", limited)
	}
	if got := tr.Filter("zzz", "", 0); len(got) != 0 {
		t.Fatalf("unknown trace matched %d spans", len(got))
	}
}
