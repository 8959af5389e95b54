package rest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Front-door http.Server limits shared by both daemons. A server with
// no timeouts lets a single slow-loris client hold a connection (and a
// goroutine) forever; these bounds make every connection's worst-case
// cost finite before admission control even sees the request.
const (
	// ServerReadHeaderTimeout bounds how long a client may dribble out
	// its request headers.
	ServerReadHeaderTimeout = 5 * time.Second
	// ServerReadTimeout bounds reading the entire request, body
	// included (loose-federation dump uploads are the largest).
	ServerReadTimeout = 30 * time.Second
	// ServerWriteTimeout bounds writing the response; chart responses
	// over the full federation are the slowest producers.
	ServerWriteTimeout = 60 * time.Second
	// ServerIdleTimeout reclaims kept-alive connections that have gone
	// quiet.
	ServerIdleTimeout = 2 * time.Minute
	// ServerMaxHeaderBytes caps request-header memory per connection.
	ServerMaxHeaderBytes = 1 << 20
	// ServerShutdownGrace bounds how long Serve waits for in-flight
	// requests once its context is done.
	ServerShutdownGrace = 10 * time.Second
)

// NewHTTPServer returns an http.Server for h with the front-door
// limits above applied. Both daemons build their listener through
// this so neither can regress to an unbounded server.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ServerReadHeaderTimeout,
		ReadTimeout:       ServerReadTimeout,
		WriteTimeout:      ServerWriteTimeout,
		IdleTimeout:       ServerIdleTimeout,
		MaxHeaderBytes:    ServerMaxHeaderBytes,
	}
}

// Serve serves srv on ln until ctx is done, then shuts srv down. It
// returns only after Shutdown has returned, so every request in flight
// when ctx ended has finished (or ServerShutdownGrace has run out):
// a daemon that saves its warehouse after Serve saves every write it
// acknowledged. http.Server.Serve itself returns as soon as Shutdown
// starts, which is why neither daemon calls it directly.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), ServerShutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-served
	if err != nil {
		return fmt.Errorf("rest: shutdown: %w", err)
	}
	return nil
}
