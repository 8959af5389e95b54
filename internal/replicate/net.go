package replicate

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/faults"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/warehouse"
)

// Tight federation: the satellite streams binlog events to the hub
// over TCP as they are committed ("live replication", paper §II-A).
// Protocol (gob-framed):
//
//	satellite -> hub:  hello{instance, version, wire}
//	hub -> satellite:  helloAck{ok, err, wire, resumeLSN, heartbeat}
//	satellite -> hub:  batch{upTo, packed}   (repeated; hb=true when idle)
//	hub -> satellite:  ack{upTo, err}        (one per batch; hb=true on a timer)
//
// The frames are gob; a batch's events are not — they ride in one byte
// field, packed by the warehouse's binary event codec
// (warehouse.AppendEvents), the same bytes a WAL record holds. There is
// one codec and no negotiation of it: the same-version rule below is
// what keeps both ends agreeing on the format.
//
// The hub enforces the paper's same-version requirement ("each
// individual XDMoD instance must run the same version of XDMoD",
// §II-A) at handshake time and tells the satellite where to resume
// from, using its durable per-instance commit position. The version is
// a string from each instance's config file, so it says what the
// operator wrote, not what is running; the part of the rule that data
// depends on — both ends frame events the same way — is therefore
// carried separately as wireFormat, a number compiled into the binary.
// Each end sends its own and refuses a peer whose number differs, and
// gob reads the field as 0 from a build that predates it, so a build
// that would not see Packed is never sent a batch and never acks one.
//
// Liveness: every read and write carries a deadline. The hub sends a
// heartbeat ack every HeartbeatInterval and the satellite sends a
// heartbeat batch whenever it has been idle for one interval, so each
// side reads *something* at least once per interval from a live peer
// and closes the connection after 2× the interval of silence — a
// silently-dead peer (power loss, network partition, injected stall)
// can no longer hang a sender or receiver goroutine forever. The hub
// picks the interval and propagates it in the handshake ack so both
// sides always agree.
//
// A batch the hub does not apply is refused, not dropped: the hub
// answers it with an ack whose Err says why, then closes the
// connection. That holds for a batch whose events do not decode, one
// carrying pushdown deltas the connection never negotiated, and one the
// sink fails to apply alike. The
// sender's reconnect backoff (RunWithRetry) is the one retry policy: it
// keeps growing across refused batches, where a connection that merely
// dropped after the handshake retries at the initial delay.

var repLog = obs.Logger("replicate")

const (
	// DefaultHeartbeatInterval paces hub heartbeat acks and idle
	// satellite heartbeat batches; a peer silent for 2× this is dead.
	DefaultHeartbeatInterval = 5 * time.Second
	// DefaultMaxFrameBytes bounds how many bytes the hub will read for
	// a single replication frame before giving up on the connection.
	DefaultMaxFrameBytes = 64 << 20
	// handshakeTimeout bounds dial + hello/helloAck exchange.
	handshakeTimeout = 30 * time.Second
	// maxKeptPacked is the largest Packed array the hub keeps between
	// frames of a connection; a full batch of facts is well under it.
	maxKeptPacked = 1 << 20
)

// writeTimeout is the deadline for writing one protocol frame.
func writeTimeout(hb time.Duration) time.Duration {
	if d := 2 * hb; d > time.Second {
		return d
	}
	return time.Second
}

// isTimeout reports whether err is a deadline expiry rather than a
// peer close or protocol error.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// wireFormat numbers what a batch frame carries. It is not configurable
// and nothing is chosen by it: unequal numbers end the handshake.
// 1 (never sent: the field did not exist) was batch.Events as gob; 2 is
// batch.Packed; 3 keeps batch.Packed and narrows aggregate.Bin to the
// realm's stored state (one State slice in place of sums, mins, maxes
// and lasts for every measure column), so a pushdown pair of mixed
// builds refuses at hello instead of merging bins of another shape; 4
// codes a CREATE_TABLE's definition and a LOAD's column vectors inside
// Packed with the event codec's own primitives, where 3 nested gob
// blobs; 5 adds the codec's string reference (a cell naming a string
// its column already spelled in the same buffer), which a build of 4
// would refuse as an unknown cell tag.
const wireFormat = 5

func init() {
	// The frames above never carry a boxed cell, but a gob encoding of
	// warehouse.Event does (Row and Old are []any): bench/stepped.go
	// sizes a frame that way. gob knows every other cell type already.
	gob.Register(time.Time{})
}

type hello struct {
	Instance string
	Version  string
	// Wire is the satellite build's wireFormat.
	Wire int
	// Trace is the satellite handshake span's wire-form trace context
	// (obs traceparent); empty means "no trace".
	Trace string
	// Pushdown offers aggregation pushdown for PushdownRealms: the
	// satellite folds those realms' facts into partial-aggregate deltas
	// instead of shipping them raw (see pushdown.go). LevelsDigest
	// fingerprints the satellite's aggregation levels; the hub declines
	// the offer on a mismatch. All three are zero from a satellite
	// replicating facts.
	Pushdown       bool
	PushdownRealms []string
	LevelsDigest   string
}

type helloAck struct {
	OK  bool
	Err string
	// Wire is the hub build's wireFormat; the satellite checks it on an
	// OK ack, since a hub that predates the field accepts any hello.
	Wire   int
	Resume uint64
	// Heartbeat is the hub's heartbeat interval, always positive; the
	// satellite adopts it.
	Heartbeat time.Duration
	// Trace is the hub accept span's trace context (optional; joins the
	// satellite's handshake trace when hello carried one).
	Trace string
	// PushdownOK grants the hello's pushdown offer. False on an offer
	// is a soft decline, with PushdownErr saying why: the connection
	// proceeds and the satellite falls back to raw fact replication.
	PushdownOK  bool
	PushdownErr string
}

type batch struct {
	UpTo uint64
	// Packed is the frame's events in the binary event codec
	// (warehouse.AppendEvents); empty when the frame carries none.
	Packed []byte
	// HB marks an empty keep-alive frame sent while the satellite has
	// nothing to replicate; the hub ignores it (no ack, no apply).
	HB bool
	// Trace is the sending span's trace context, itself parented under
	// the ingest that produced the batch's newest events (when the
	// binlog retains that mark) — the hub apply joins it, so one
	// TraceID spans ingest → send → apply → fold across processes.
	// Optional; zero value = absent.
	Trace string
	// Deltas carries partial-aggregate deltas on a pushdown-granted
	// connection (possibly alongside raw events for non-pushdown
	// tables). Applied after the events, before the ack.
	Deltas []aggregate.Delta
}

type ack struct {
	UpTo uint64
	// HB marks a hub keep-alive; it acknowledges nothing.
	HB bool
	// Err, when set, refuses the batch UpTo: the hub could not apply it
	// and closes the connection after this ack. gob omits it when empty,
	// so an ack of an applied batch encodes as it always did.
	Err string
}

// errBatchRefused marks a batch the hub answered with an error ack.
var errBatchRefused = errors.New("replicate: hub refused batch")

// errFrameTooBig reports a replication frame exceeding MaxFrameBytes.
var errFrameTooBig = errors.New("replicate: frame exceeds maximum size")

// frameLimitReader caps how many bytes a single gob Decode may pull
// off the wire, so a corrupt or hostile length prefix cannot make the
// hub read (and buffer) without bound. The budget is reset before
// each Decode; it is approximate — gob's internal buffering may carry
// a few KB across frames — but bounds any single frame to roughly max.
type frameLimitReader struct {
	r   io.Reader
	max int64
	n   int64
}

func (f *frameLimitReader) Read(p []byte) (int, error) {
	if f.n >= f.max {
		return 0, errFrameTooBig
	}
	if int64(len(p)) > f.max-f.n {
		p = p[:f.max-f.n]
	}
	n, err := f.r.Read(p)
	f.n += int64(n)
	return n, err
}

func (f *frameLimitReader) reset() { f.n = 0 }

// Sink is the hub-side handler for replicated event streams; the
// federation core provides one.
type Sink interface {
	// Resume returns the position after which instance should resume.
	Resume(instance string) (uint64, error)
	// ApplyBatchCtx applies events from instance and durably records
	// upTo as its new commit position. ctx carries the batch frame's
	// trace context (obs.ContextWithTraceParent), so the sink's apply
	// span joins the satellite's trace.
	ApplyBatchCtx(ctx context.Context, instance string, upTo uint64, events []warehouse.Event) error
}

// ErrPushdownDeclined marks a NegotiatePushdown refusal as soft: the
// hub wraps it (fmt.Errorf("%w: ...", ErrPushdownDeclined)) to say
// "not this offer, but the connection may proceed in facts mode".
// Any non-wrapped error rejects the handshake outright.
var ErrPushdownDeclined = errors.New("replicate: pushdown declined")

// PushdownRequest is a satellite's hello-time pushdown offer (or the
// explicit absence of one, Enabled false — the hub still sees it, so
// it can refuse a member that previously pushed partial aggregates
// and now silently reconnects in facts mode).
type PushdownRequest struct {
	Enabled      bool
	Realms       []string
	LevelsDigest string
}

// PushdownSink is an optional Sink extension for hubs that accept
// partial-aggregate deltas. When the sink implements it, the receiver
// calls NegotiatePushdown on every handshake.
type PushdownSink interface {
	Sink
	// NegotiatePushdown vets an instance's offer: nil grants it, an
	// ErrPushdownDeclined-wrapped error declines it softly (connection
	// proceeds in facts mode), any other error rejects the handshake.
	NegotiatePushdown(instance string, req PushdownRequest) error
	// ApplyDeltas installs a granted member's deltas; upTo is the
	// carrying batch's position (for bookkeeping only — delta
	// application is idempotent and needs no positions).
	ApplyDeltas(ctx context.Context, instance string, upTo uint64, deltas []aggregate.Delta) error
}

// Receiver accepts tight-replication connections on the hub.
type Receiver struct {
	Version string
	Sink    Sink
	// Authorize, when set, vets an instance at handshake (the
	// federation core uses it to restrict membership to registered
	// instances).
	Authorize func(instance string) error
	// HeartbeatInterval paces keep-alive acks and the peer-silence
	// deadline (2× this). Zero means DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// MaxFrameBytes bounds a single replication frame. Zero means
	// DefaultMaxFrameBytes.
	MaxFrameBytes int64
	// Faults, when set, injects connection faults on every accepted
	// conn (tests only).
	Faults *faults.Registry

	ln     net.Listener
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0").
// It returns the bound address.
func (r *Receiver) Listen(addr string) (string, error) {
	if r.Sink == nil {
		return "", fmt.Errorf("replicate: receiver has no sink")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.ln = ln
	r.wg.Add(1)
	go r.acceptLoop()
	return ln.Addr().String(), nil
}

func (r *Receiver) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer conn.Close()
			r.serve(faults.WrapConn(conn, r.Faults))
		}()
	}
}

func (r *Receiver) serve(conn net.Conn) {
	hb := r.HeartbeatInterval
	if hb <= 0 {
		hb = DefaultHeartbeatInterval
	}
	maxFrame := r.MaxFrameBytes
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	flr := &frameLimitReader{r: &countingReader{r: conn, c: mRecvBytes}, max: maxFrame}
	dec := gob.NewDecoder(flr)
	enc := gob.NewEncoder(conn)
	// The heartbeat goroutine and the apply loop share the encoder.
	var encMu sync.Mutex
	send := func(v any) error {
		encMu.Lock()
		defer encMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(writeTimeout(hb)))
		return enc.Encode(v)
	}

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	flr.reset()
	var h hello
	if err := dec.Decode(&h); err != nil {
		return
	}
	// The accept span joins the satellite's handshake trace when the
	// hello carried one, so a refused connect is visible on both rings.
	hctx, hsp := obs.StartSpan(
		obs.ContextWithTraceParent(context.Background(), h.Trace), "replicate.accept")
	hsp.SetAttr("instance", h.Instance)
	if h.Version != r.Version {
		send(helloAck{OK: false, Err: fmt.Sprintf(
			"version mismatch: hub runs %q, instance %q runs %q (each instance must run the same version)",
			r.Version, h.Instance, h.Version)})
		hsp.SetAttr("rejected", "version")
		hsp.End()
		return
	}
	if h.Wire != wireFormat {
		repLog.Warn("replication handshake rejected",
			"instance", h.Instance, "err", "wire format mismatch", "hub_wire", wireFormat, "instance_wire", h.Wire)
		send(helloAck{OK: false, Err: fmt.Sprintf(
			"wire format mismatch: the hub's build speaks replication wire format %d, instance %q's build speaks %d, "+
				"whatever their configs say (upgrade the hub and its satellites together)",
			wireFormat, h.Instance, h.Wire)})
		hsp.SetAttr("rejected", "wire format")
		hsp.End()
		return
	}
	if r.Authorize != nil {
		if err := r.Authorize(h.Instance); err != nil {
			send(helloAck{Err: err.Error()})
			hsp.SetAttr("rejected", err.Error())
			hsp.End()
			return
		}
	}
	// Pushdown negotiation. The sink (when it speaks pushdown) vets
	// every handshake, including Enabled=false offers — a member that
	// previously pushed partial aggregates must not silently reconnect
	// in facts mode over stale hub-side bins.
	pdGranted := false
	var pdErr string
	pdSink, pdCapable := r.Sink.(PushdownSink)
	if pdCapable {
		err := pdSink.NegotiatePushdown(h.Instance, PushdownRequest{
			Enabled: h.Pushdown, Realms: h.PushdownRealms, LevelsDigest: h.LevelsDigest})
		switch {
		case err == nil:
			pdGranted = h.Pushdown
		case errors.Is(err, ErrPushdownDeclined):
			pdErr = err.Error()
		default:
			repLog.Warn("replication handshake rejected",
				"instance", h.Instance, "err", err)
			send(helloAck{Err: err.Error()})
			hsp.SetAttr("rejected", err.Error())
			hsp.End()
			return
		}
	} else if h.Pushdown {
		pdErr = "hub does not support aggregation pushdown"
	}
	resume, err := r.Sink.Resume(h.Instance)
	if err != nil {
		send(helloAck{Err: err.Error()})
		hsp.SetAttr("rejected", err.Error())
		hsp.End()
		return
	}
	ackErr := send(helloAck{OK: true, Wire: wireFormat, Resume: resume, Heartbeat: hb, Trace: obs.TraceParent(hctx),
		PushdownOK: pdGranted, PushdownErr: pdErr})
	hsp.SetAttr("resume", strconv.FormatUint(resume, 10))
	hsp.End()
	if ackErr != nil {
		return
	}

	// Keep-alive: a satellite with nothing to send still hears from us
	// every interval, so it can tell a quiet hub from a dead one.
	done := make(chan struct{})
	defer close(done)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if err := send(ack{HB: true}); err != nil {
					conn.Close() // wake the decode loop
					return
				}
				mHeartbeats.With("hub").Inc()
			}
		}
	}()

	var b batch
	for {
		conn.SetReadDeadline(time.Now().Add(2 * hb))
		flr.reset()
		// gob leaves a field the frame omits as it was, so every frame
		// decodes into a zeroed batch; only Packed's array is kept for
		// reuse (decoded events never alias it) — unless one outsize
		// frame (a restore's LOAD) grew it: a hub holds one per member.
		b = batch{Packed: b.Packed[:0]}
		if cap(b.Packed) > maxKeptPacked {
			b.Packed = nil
		}
		if err := dec.Decode(&b); err != nil {
			switch {
			case isTimeout(err):
				mPeerTimeouts.With("hub").Inc()
				repLog.Warn("replication peer silent, closing",
					"instance", h.Instance, "silence", 2*hb)
			case errors.Is(err, errFrameTooBig):
				mOversizeFrames.Inc()
				repLog.Error("oversize replication frame, closing",
					"instance", h.Instance, "max_bytes", maxFrame)
			}
			return
		}
		if b.HB {
			continue // satellite keep-alive
		}
		// A frame refused before the sink sees it applies nothing, and the
		// member's position stays where it was.
		var events []warehouse.Event
		if len(b.Packed) > 0 {
			var err error
			if events, err = warehouse.DecodeEvents(b.Packed); err != nil {
				repLog.Error("malformed replication frame, refusing",
					"instance", h.Instance, "up_to", b.UpTo, "err", err)
				send(ack{UpTo: b.UpTo, Err: "malformed replication frame: " + err.Error()})
				return
			}
		}
		if len(b.Deltas) > 0 && !pdGranted {
			repLog.Error("unnegotiated pushdown deltas, refusing",
				"instance", h.Instance, "up_to", b.UpTo, "deltas", len(b.Deltas))
			send(ack{UpTo: b.UpTo, Err: "the frame carries pushdown deltas this connection never negotiated"})
			return
		}
		actx := obs.ContextWithTraceParent(context.Background(), b.Trace)
		if err := r.Sink.ApplyBatchCtx(actx, h.Instance, b.UpTo, events); err != nil {
			repLog.Warn("replication batch rejected",
				"instance", h.Instance, "up_to", b.UpTo, "err", err)
			send(ack{UpTo: b.UpTo, Err: err.Error()})
			return
		}
		if len(b.Deltas) > 0 {
			if err := pdSink.ApplyDeltas(actx, h.Instance, b.UpTo, b.Deltas); err != nil {
				repLog.Warn("pushdown deltas rejected",
					"instance", h.Instance, "up_to", b.UpTo, "err", err)
				send(ack{UpTo: b.UpTo, Err: err.Error()})
				return
			}
		}
		mRecvBatches.With(h.Instance).Inc()
		if err := send(ack{UpTo: b.UpTo}); err != nil {
			return
		}
	}
}

// Close stops the receiver and waits for connection handlers.
func (r *Receiver) Close() {
	r.mu.Lock()
	if !r.closed && r.ln != nil {
		r.closed = true
		r.ln.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// SenderStats reports a sender's progress.
type SenderStats struct {
	Hub         string // hub address of the active/most recent connection
	SentBatches int
	SentEvents  int
	Position    uint64
	// Mode is the replication mode of the current connection: "facts",
	// or "pushdown" when the hub granted aggregation pushdown.
	Mode string
	// Deltas / DeltaRows count flushed pushdown deltas and the bins
	// they carried; DeltaCovered is the binlog position the newest
	// flushed deltas cover.
	Deltas       int
	DeltaRows    int
	DeltaCovered uint64
}

// byteTap counts bytes written through it; the sender tees the gob
// stream through one so a delta flush's exact wire size is the tap
// delta around its Encode (the protocol is written by one goroutine).
type byteTap struct{ n int64 }

func (t *byteTap) Write(p []byte) (int, error) {
	t.n += int64(len(p))
	return len(p), nil
}

// Sender streams one satellite's binlog to one hub (one Sender per
// federation route; a satellite replicating to multiple hubs runs
// several senders, paper §II-C4).
type Sender struct {
	Instance  string
	Version   string
	DB        *warehouse.DB
	Rewriter  *Rewriter
	BatchSize int // default 512
	// Pushdown, when set, offers aggregation pushdown at handshake and
	// — if the hub grants it — folds the pushdown realms' fact events
	// into partial-aggregate deltas instead of shipping them raw. When
	// the hub declines, the sender logs once and replicates facts.
	Pushdown *PushdownFolder

	mu    sync.Mutex
	stats SenderStats

	// handshook records whether the most recent Run got past the hub's
	// handshake; RunWithRetry uses it to reset the backoff after a
	// successful (re)connect instead of punishing a healthy hub that
	// dropped one connection with an already-grown delay.
	handshook atomic.Bool
}

// Stats returns a snapshot of the sender's progress.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ErrHandshakeRejected reports that the connection was refused
// permanently (version or wire format mismatch, unauthorized instance,
// a hub that resumes past this binlog's head).
var ErrHandshakeRejected = errors.New("replicate: handshake rejected")

// Run connects to the hub and streams until the context is cancelled,
// the binlog closes, or the connection fails. It returns nil on clean
// shutdown. Callers wanting reconnection wrap Run in a retry loop
// (see RunWithRetry).
func (s *Sender) Run(ctx context.Context, hubAddr string) error {
	d := net.Dialer{Timeout: handshakeTimeout}
	conn, err := d.DialContext(ctx, "tcp", hubAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock protocol reads/writes when the context is cancelled.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	tap := &byteTap{}
	enc := gob.NewEncoder(io.MultiWriter(tap, &countingWriter{w: conn, c: mSentBytes.With(s.Instance)}))
	dec := gob.NewDecoder(conn)
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hctx, hsp := obs.StartSpan(ctx, "replicate.handshake")
	hsp.SetAttr("instance", s.Instance)
	hsp.SetAttr("hub", hubAddr)
	h := hello{Instance: s.Instance, Version: s.Version, Wire: wireFormat, Trace: obs.TraceParent(hctx)}
	if s.Pushdown != nil {
		h.Pushdown = true
		h.PushdownRealms = s.Pushdown.Realms()
		h.LevelsDigest = s.Pushdown.Digest()
	}
	if err := enc.Encode(h); err != nil {
		hsp.End()
		return err
	}
	var ha helloAck
	if err := dec.Decode(&ha); err != nil {
		hsp.End()
		return err
	}
	hsp.SetAttr("ok", strconv.FormatBool(ha.OK))
	hsp.End()
	if !ha.OK {
		return fmt.Errorf("%w: %s", ErrHandshakeRejected, ha.Err)
	}
	if ha.Wire != wireFormat {
		// A hub that predates the field accepted the hello without
		// looking at it, and would ack frames whose events it cannot see.
		return fmt.Errorf("%w: wire format mismatch: this build speaks replication wire format %d, the hub's speaks %d "+
			"(upgrade the hub and its satellites together)", ErrHandshakeRejected, wireFormat, ha.Wire)
	}
	if head := s.DB.Binlog().Last(); ha.Resume > head {
		// The hub holds LSNs this binlog does not: a WAL that ended
		// below what the hub acknowledged, or a restart that numbers
		// LSNs from 1 again. The next writes would reuse LSNs the hub
		// already holds, and it would never see them.
		return fmt.Errorf("%w: the hub resumes at LSN %d but this binlog ends at LSN %d "+
			"(the satellite lost events the hub holds; resync the member)", ErrHandshakeRejected, ha.Resume, head)
	}
	conn.SetDeadline(time.Time{}) // handshake done; per-frame deadlines below
	hb := ha.Heartbeat
	pos := ha.Resume
	var pd *PushdownFolder
	if s.Pushdown != nil {
		if ha.PushdownOK {
			pd = s.Pushdown
		} else {
			repLog.Warn("hub declined aggregation pushdown; replicating raw facts",
				"instance", s.Instance, "hub", hubAddr, "reason", ha.PushdownErr)
		}
	}
	mode := "facts"
	if pd != nil {
		mode = "pushdown"
	}
	s.handshook.Store(true)
	s.mu.Lock()
	s.stats.Hub = hubAddr
	s.stats.Mode = mode
	// The hub's resume position counts as acknowledged: a sender that
	// reconnects with nothing new to send must not report stale lag.
	if pos > s.stats.Position {
		s.stats.Position = pos
	}
	s.mu.Unlock()
	lag := mLag.With(s.Instance, hubAddr)
	s.setLag(lag, pos)
	batchSize := s.BatchSize
	if batchSize <= 0 {
		batchSize = 512
	}

	// Reader goroutine: the hub's frames are batch acks interleaved
	// with keep-alives, so acks are consumed off the main loop. A hub
	// silent for 2× the heartbeat interval is dead — the read deadline
	// fires, the conn is closed, and the main loop unblocks. An ack that
	// refuses its batch ends the connection the same way, with the hub's
	// reason as the error: the hub closes right behind it, and only one
	// error reaches the main loop.
	acks := make(chan ack, 1) // stop-and-wait: at most one outstanding batch
	readErr := make(chan error, 1)
	go func() {
		for {
			conn.SetReadDeadline(time.Now().Add(2 * hb))
			var a ack
			err := dec.Decode(&a)
			if err == nil && a.Err != "" {
				err = fmt.Errorf("%w %d: %s", errBatchRefused, a.UpTo, a.Err)
			}
			if err != nil {
				if isTimeout(err) {
					mPeerTimeouts.With("satellite").Inc()
					repLog.Warn("hub silent, closing",
						"instance", s.Instance, "hub", hubAddr, "silence", 2*hb)
				}
				readErr <- err
				conn.Close() // unblock a sender stuck writing
				return
			}
			if a.HB {
				continue
			}
			select {
			case acks <- a:
			default:
			}
		}
	}()

	// awaitAck consumes the hub's ack for upTo. ok=false with a nil
	// error means clean context shutdown; the caller returns nil.
	awaitAck := func(upTo uint64) (bool, error) {
		select {
		case a := <-acks:
			if a.UpTo != upTo {
				return false, fmt.Errorf("replicate: hub acked %d, expected %d", a.UpTo, upTo)
			}
			return true, nil
		case err := <-readErr:
			if ctx.Err() != nil {
				return false, nil
			}
			return false, err
		case <-ctx.Done():
			return false, nil
		}
	}

	// flushDeltas ships due pushdown deltas in their own batch frame.
	// The frame's UpTo repeats the already-acknowledged position —
	// delta application is idempotent and carries no positions of its
	// own — and the exact wire size is the encoder tap's delta.
	flushDeltas := func(now time.Time) (bool, error) {
		if pd == nil || pd.DueIn(now, s.DB.Binlog().Last() > pos) > 0 {
			return true, nil
		}
		deltas, rows, err := pd.Flush(now)
		if err != nil {
			return false, err
		}
		if len(deltas) == 0 {
			return true, nil
		}
		before := tap.n
		conn.SetWriteDeadline(time.Now().Add(writeTimeout(hb)))
		if err := enc.Encode(batch{UpTo: pos, Deltas: deltas}); err != nil {
			if ctx.Err() != nil {
				return false, nil
			}
			return false, err
		}
		if ok, err := awaitAck(pos); !ok || err != nil {
			return ok, err
		}
		aggregate.NotePushdownSent(len(deltas), rows, int(tap.n-before))
		var covered uint64
		for _, d := range deltas {
			if d.CoveredLSN > covered {
				covered = d.CoveredLSN
			}
		}
		s.mu.Lock()
		s.stats.Deltas += len(deltas)
		s.stats.DeltaRows += rows
		if covered > s.stats.DeltaCovered {
			s.stats.DeltaCovered = covered
		}
		s.mu.Unlock()
		return true, nil
	}

	if pd != nil {
		// Fresh connection: re-establish the hub's bins from a snapshot
		// fold before streaming anything (reset-on-connect — what makes
		// a sender killed mid-flush convergent; see pushdown.go).
		pd.PrepareConnect()
		if ok, err := flushDeltas(time.Now()); err != nil {
			return err
		} else if !ok {
			return nil
		}
	}

	var packed []byte // the frame's events, reused: Encode has copied them out
	for {
		// Idle for at most a heartbeat interval — or, with dirty pushdown
		// bins waiting out their flush interval, until that flush is due.
		idle := hb
		if pd != nil {
			idle = min(hb, pd.DueIn(time.Now(), false))
		}
		wctx, cancelWait := context.WithTimeout(ctx, idle)
		evs, err := s.DB.Binlog().Wait(wctx, pos, batchSize)
		cancelWait()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, context.DeadlineExceeded) {
				// Idle interval: tell the hub we are alive, and notice
				// if the reader goroutine declared it dead.
				select {
				case err := <-readErr:
					return err
				default:
				}
				if ok, err := flushDeltas(time.Now()); err != nil {
					return err
				} else if !ok {
					return nil
				}
				conn.SetWriteDeadline(time.Now().Add(writeTimeout(hb)))
				if err := enc.Encode(batch{HB: true}); err != nil {
					if ctx.Err() != nil {
						return nil
					}
					return err
				}
				mHeartbeats.With("satellite").Inc()
				continue
			}
			return err
		}
		out, upTo := s.Rewriter.ProcessBatch(evs)
		if pd != nil {
			// Fold pushdown-realm facts instead of shipping them; the
			// batch frame still carries upTo so the hub's durable commit
			// position advances even when every event folded away.
			if out, err = pd.Consume(out, upTo); err != nil {
				return err
			}
		}
		// Parent the send span under the ingest that produced the
		// newest events in this range, when the binlog retains that
		// mark; the frame carries the span's context to the hub.
		sctx := obs.ContextWithTraceParent(context.Background(), s.DB.Binlog().TraceBetween(pos, upTo))
		sctx, ssp := obs.StartSpan(sctx, "replicate.send")
		ssp.SetAttr("instance", s.Instance)
		ssp.SetAttr("events", strconv.Itoa(len(out)))
		packed = packed[:0]
		if len(out) > 0 {
			packed = warehouse.AppendEvents(packed, out)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout(hb)))
		err = enc.Encode(batch{UpTo: upTo, Packed: packed, Trace: obs.TraceParent(sctx)})
		ssp.End()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if ok, err := awaitAck(upTo); err != nil {
			return err
		} else if !ok {
			return nil
		}
		pos = upTo
		mSentBatches.With(s.Instance).Inc()
		mSentEvents.With(s.Instance).Add(uint64(len(out)))
		s.setLag(lag, pos)
		s.mu.Lock()
		s.stats.SentBatches++
		s.stats.SentEvents += len(out)
		s.stats.Position = pos
		s.mu.Unlock()
		// Ship any due deltas right behind the acked batch, so delta
		// convergence never waits on an idle heartbeat — once the binlog
		// is drained, or a whole interval overdue if it never is.
		if ok, err := flushDeltas(time.Now()); err != nil {
			return err
		} else if !ok {
			return nil
		}
	}
}

// setLag publishes the replication-lag gauge: how many binlog events
// the satellite holds beyond the hub's last acknowledged position. A
// caught-up route reads 0. The hub never acks past the head: Run
// refuses a hub that resumes beyond it.
func (s *Sender) setLag(lag *obs.Gauge, acked uint64) {
	lag.Set(float64(s.DB.Binlog().Last() - acked))
}

// Retry backoff bounds for RunWithRetry.
const (
	// DefaultRetryBackoff is the initial reconnect delay when the
	// caller passes backoff <= 0.
	DefaultRetryBackoff = 100 * time.Millisecond
	// MaxRetryBackoff caps the exponential growth so a hub that is down
	// for hours is still rediscovered within seconds of coming back.
	MaxRetryBackoff = 30 * time.Second
)

// nextRetryDelay doubles the delay up to MaxRetryBackoff.
func nextRetryDelay(d time.Duration) time.Duration {
	d *= 2
	if d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	return d
}

// jitteredDelay spreads a delay uniformly over [d/2, d] so a fleet of
// satellites that lost the same hub does not reconnect in lockstep.
func jitteredDelay(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// RunWithRetry runs the sender, reconnecting on transient failures
// until the context is cancelled or the handshake is permanently
// rejected. The reconnect delay starts at backoff (DefaultRetryBackoff
// when <= 0), doubles per consecutive failure up to MaxRetryBackoff,
// is jittered over [d/2, d], and resets to the initial value whenever
// a connection gets past the hub's handshake — so a flapping network
// backs off hard while a single dropped connection retries fast. A
// batch the hub refused is not a dropped connection: the delay keeps
// growing, so a member whose batch cannot apply retries it ever more
// slowly until it does.
func (s *Sender) RunWithRetry(ctx context.Context, hubAddr string, backoff time.Duration) error {
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	delay := backoff
	for {
		s.handshook.Store(false)
		err := s.Run(ctx, hubAddr)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrHandshakeRejected):
			return err
		case errors.Is(err, errBatchRefused):
			repLog.Warn("hub refused batch",
				"instance", s.Instance, "hub", hubAddr, "backoff", delay, "err", err)
		case s.handshook.Load():
			delay = backoff
		}
		mRetries.With(s.Instance).Inc()
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(jitteredDelay(delay)):
		}
		delay = nextRetryDelay(delay)
	}
}
