package rest

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeWaitsForInFlightRequests: once its context ends, Serve must
// not return while a handler is still running — a daemon saves its
// warehouse right after Serve, and a write acknowledged after that
// save would be lost. The handler here blocks until released, well
// after the context is cancelled.
func TestServeWaitsForInFlightRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.Write([]byte("done"))
		close(finished)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, srv, ln) }()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{string(b), err}
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) while a handler was still running", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	select {
	case <-finished:
	default:
		t.Fatal("Serve returned before the handler finished")
	}
	if r := <-replied; r.err != nil || r.body != "done" {
		t.Fatalf("in-flight request got %q, %v; want its whole response", r.body, r.err)
	}
}
