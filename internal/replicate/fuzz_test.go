package replicate

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"xdmodfed/internal/warehouse"
)

// frameSink records the batches Receiver.serve hands it and refuses
// every one whose UpTo is 3 mod 7, so the error-ack path runs too.
type frameSink struct{ calls []sinkCall }

type sinkCall struct {
	upTo   uint64
	events int
}

func (s *frameSink) Resume(string) (uint64, error) { return 0, nil }

func (s *frameSink) ApplyBatchCtx(_ context.Context, _ string, upTo uint64, events []warehouse.Event) error {
	s.calls = append(s.calls, sinkCall{upTo, len(events)})
	if upTo%7 == 3 {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// discardWrites is a conn whose writes succeed without reaching the
// peer.
type discardWrites struct{ net.Conn }

func (discardWrites) Write(p []byte) (int, error) { return len(p), nil }

// expectedCalls decodes stream as serve does and returns the calls a
// sink may see, in order: each batch frame up to the first that does
// not decode, whose Packed does not decode, that the sink refuses, or
// that carries deltas no handshake granted. serve may stop sooner (its
// frame limit and read deadlines), so what it hands the sink must be a
// prefix of these.
func expectedCalls(stream []byte) []sinkCall {
	dec := gob.NewDecoder(bytes.NewReader(stream))
	var h hello
	if dec.Decode(&h) != nil {
		return nil
	}
	var out []sinkCall
	for {
		var b batch
		if dec.Decode(&b) != nil {
			return out
		}
		if b.HB {
			continue
		}
		var events []warehouse.Event
		if len(b.Packed) > 0 {
			var err error
			if events, err = warehouse.DecodeEvents(b.Packed); err != nil {
				return out
			}
		}
		out = append(out, sinkCall{b.UpTo, len(events)})
		if b.UpTo%7 == 3 || len(b.Deltas) > 0 {
			return out
		}
	}
}

// FuzzReceiverFrames feeds arbitrary bytes to Receiver.serve after a
// valid hello, over net.Pipe, with a short heartbeat and a small frame
// limit. serve must not panic, must return once the bytes end, and must
// hand the sink no batch whose frame or Packed events do not decode (an
// empty call would still move the member's position). Seeds: good
// batches, an error ack (serve reads it as a batch), a batch with
// corrupted Packed bytes, batches whose Packed bytes hold a string
// reference naming no string (badStringRefFrames) and a truncated
// frame.
func FuzzReceiverFrames(f *testing.F) {
	db := satelliteWithJobs(f, "fuzzsat", 3)
	evs, err := db.Binlog().ReadFrom(0, 0)
	if err != nil {
		f.Fatal(err)
	}
	evs, upTo := NewRewriter("fuzzsat", Filter{}).ProcessBatch(evs)
	packed := warehouse.AppendEvents(nil, evs)

	h := hello{Instance: "fuzzsat", Version: "t", Wire: wireFormat}
	// frames encodes vs as they follow the hello on one gob stream, so
	// the first frame of each type carries the type's definition.
	frames := func(vs ...any) []byte {
		var b bytes.Buffer
		e := gob.NewEncoder(&b)
		e.Encode(h)
		n := b.Len()
		for _, v := range vs {
			if err := e.Encode(v); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()[n:]
	}
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(h); err != nil {
		f.Fatal(err)
	}
	helloBytes := hb.Bytes()
	good := frames(batch{UpTo: upTo, Packed: packed}, batch{HB: true}, batch{UpTo: upTo + 1})
	f.Add(good)
	f.Add(frames(ack{UpTo: 5, Err: "cannot apply"}))
	corrupt := bytes.Clone(packed)
	for i := len(corrupt) / 2; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0xa5
	}
	f.Add(frames(batch{UpTo: upTo, Packed: corrupt}))
	for _, p := range badStringRefFrames() {
		if _, err := warehouse.DecodeEvents(p); err == nil {
			f.Fatalf("a bad string reference decoded: % x", p)
		}
		f.Add(frames(batch{UpTo: upTo, Packed: p}))
	}
	f.Add(good[:len(good)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(bytes.Clone(helloBytes), data...)
		sink := &frameSink{}
		r := &Receiver{Version: "t", Sink: sink, HeartbeatInterval: 20 * time.Millisecond, MaxFrameBytes: 4 << 10}
		// The client writes the stream and closes; serve's own frames
		// (the hello ack, acks, heartbeats) are dropped, so they never
		// wait on the client or fail once it has gone.
		client, server := net.Pipe()
		go func() {
			client.Write(stream)
			client.Close()
		}()
		served := make(chan struct{})
		go func() {
			defer close(served)
			r.serve(discardWrites{server})
		}()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not return after the bytes ended")
		}
		server.Close()
		r.wg.Wait()
		want := expectedCalls(stream)
		if len(sink.calls) > len(want) {
			t.Fatalf("sink got %d batches %v, want at most %v", len(sink.calls), sink.calls, want)
		}
		for i, c := range sink.calls {
			if c != want[i] {
				t.Fatalf("sink batch %d = %+v, want %+v", i, c, want[i])
			}
		}
	})
}

// badStringRefFrames returns Packed buffers that are well formed but
// for one string reference (cell tag 9) naming no string its column
// spelled: before the column spelled any, one past its strings, across
// a change of table, in a LOAD vector to the vector before it, and in
// a LOAD vector of ints. Each opens with a CREATE_SCHEMA, which a
// receiver that applied part of the frame would apply. The warehouse
// tests name the same cases and the errors they give.
func badStringRefFrames() [][]byte {
	const ref = 9
	createS := []byte{5, 2, 1, 's', 0, 0, 0} // CREATE_SCHEMA s at LSN 1
	insert := func(table byte) []byte {      // INSERT into s.<table> at the next LSN
		return []byte{1, 6, 1, 's', 1, table, 0, 0}
	}
	next := []byte{1, 7, 0, 0}                  // INSERT into the same table at the next LSN
	load := []byte{8, 34, 1, 's', 1, 't', 0, 0} // LOAD of s.t at the next LSN
	ab := []byte{4, 2, 'a', 'b'}                // the string "ab", spelled
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		cat([]byte{2}, createS, insert('t'), []byte{1, ref, 0}),
		cat([]byte{3}, createS, insert('t'), []byte{1}, ab, next, []byte{1, ref, 1}),
		cat([]byte{4}, createS, insert('t'), []byte{1}, ab, insert('u'), []byte{1, 0}, insert('t'), []byte{1, ref, 0}),
		cat([]byte{2}, createS, load, []byte{1, 2, 1, 'a', 3, 0}, ab, []byte{1, 'b', 3, 0, ref, 0}),
		cat([]byte{2}, createS, load, []byte{2, 1, 1, 'a', 1, 0, 1, 8, ref, 0}),
	}
}
