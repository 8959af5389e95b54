package warehouse

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"xdmodfed/internal/faults"
	"xdmodfed/internal/obs"
)

// Durable binlog: production satellites must survive restarts without
// losing replication state, so the binlog can be mirrored to an
// append-only file (a write-ahead log of row events) and replayed on
// startup. Each on-disk record is
//
//	uvarint(payload length) | CRC32C of payload (4 bytes LE) | payload
//
// and a payload is the walBinary tag byte followed by one event in the
// binary event codec (eventcodec.go) — each record a buffer of its own,
// so any record decodes without the ones before it. The length prefix
// allows appending across process restarts, the checksum catches torn
// or bit-rotted tails, and a length sanity cap stops a corrupt prefix
// from forcing a huge allocation. Recovery replays events into a fresh
// DB, which re-logs them in the same order so replication positions
// remain meaningful across restarts; a torn tail is truncated at the
// last valid record so the writer can resume appending there.
//
// Files written before the binary codec (before 8.1) hold one
// gob-encoded Event per payload. A gob stream cannot begin with a zero
// byte, so the tag tells them apart, and ReplayLog refuses such a
// record as undecodable — naming the format, leaving the file as it is
// — rather than reading it.

var walLog = obs.Logger("warehouse.wal")

// castagnoli is the CRC32C polynomial table used for WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxWALRecord caps a single record's payload. A length prefix larger
// than this is treated as corruption, not a request to allocate.
const maxWALRecord = 64 << 20

// walHeaderLen is the fixed part of a record after the varint: the
// 4-byte CRC32C of the payload.
const walHeaderLen = 4

// walBinary is the first payload byte of a binary-codec record.
const walBinary = 0x00

// walMaxPrefix is the longest a record's length varint and checksum
// can be; the writer builds the payload behind a gap of this size.
const walMaxPrefix = binary.MaxVarintLen64 + walHeaderLen

// FsyncPolicy selects when the WAL writer calls fsync.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every appended batch (default; an
	// acknowledged event survives an OS crash).
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a timer; a crash loses at most one
	// interval of events.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNone never syncs during operation (the OS flushes at its
	// leisure); Close still flushes.
	FsyncNone FsyncPolicy = "none"
)

// DefaultFsyncInterval is the FsyncInterval timer default.
const DefaultFsyncInterval = 100 * time.Millisecond

// WALOptions tunes durability and (in tests) fault injection for a
// LogWriter. The zero value means fsync-always with no faults.
type WALOptions struct {
	Fsync         FsyncPolicy
	FsyncInterval time.Duration    // for FsyncInterval; 0 = DefaultFsyncInterval
	Faults        *faults.Registry // nil = no injection
}

// LogWriter tees binlog events to an append-only file as they are
// committed. It follows the in-memory binlog from a starting position,
// so it can also be attached to an already-populated DB.
type LogWriter struct {
	mu     sync.Mutex
	f      faults.File
	policy FsyncPolicy
	pos    uint64
	dirty  bool   // bytes written since the last successful sync
	rec    []byte // record under construction, reused across records
	err    error
	db     *DB
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// OpenLogWriterOpts opens (creating or appending) the binlog file for
// db and starts mirroring events committed after fromLSN with the given
// durability (the zero WALOptions fsyncs every record). Callers that
// created the file fresh pass 0; callers resuming pass the LSN returned
// by ReplayLog.
func OpenLogWriterOpts(db *DB, path string, fromLSN uint64, opts WALOptions) (*LogWriter, error) {
	policy := opts.Fsync
	if policy == "" {
		policy = FsyncAlways
	}
	switch policy {
	case FsyncAlways, FsyncInterval, FsyncNone:
	default:
		return nil, fmt.Errorf("warehouse: unknown fsync policy %q", policy)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &LogWriter{
		f:      faults.WrapFile(f, opts.Faults),
		policy: policy,
		pos:    fromLSN,
		db:     db,
		cancel: cancel,
	}
	w.wg.Add(1)
	go w.follow(ctx)
	if policy == FsyncInterval {
		interval := opts.FsyncInterval
		if interval <= 0 {
			interval = DefaultFsyncInterval
		}
		w.wg.Add(1)
		go w.syncLoop(ctx, interval)
	}
	return w, nil
}

func (w *LogWriter) follow(ctx context.Context) {
	defer w.wg.Done()
	for {
		evs, err := w.db.binlog.Wait(ctx, w.Position(), 256)
		if err != nil {
			return // cancelled, or trimmed past us
		}
		if err := w.writeEvents(evs); err != nil {
			walLog.Error("wal append failed, writer stopped", "err", err)
			return
		}
	}
}

// syncLoop flushes dirty bytes on a timer under the interval policy.
func (w *LogWriter) syncLoop(ctx context.Context, interval time.Duration) {
	defer w.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.mu.Lock()
			err := w.syncLocked()
			w.mu.Unlock()
			if err != nil {
				walLog.Error("wal interval fsync failed", "err", err)
			}
		}
	}
}

func (w *LogWriter) writeEvents(evs []Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var written uint64
	for i := range evs {
		// The payload is encoded behind a gap the length prefix and the
		// checksum are then written into, right-aligned.
		rec := append(w.rec[:0], make([]byte, walMaxPrefix)...)
		rec = AppendEvents(append(rec, walBinary), evs[i:i+1])
		w.rec = rec
		payload := rec[walMaxPrefix:]
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
		rec = rec[walMaxPrefix-walHeaderLen-n:]
		copy(rec, lenBuf[:n])
		binary.LittleEndian.PutUint32(rec[n:], crc32.Checksum(payload, castagnoli))
		// One Write per record: a crash (or injected short write)
		// tears at most the record being appended, never an earlier
		// one, and recovery truncates exactly there.
		if _, err := w.f.Write(rec); err != nil {
			w.dirty = true
			w.err = err
			return err
		}
		written += uint64(len(rec))
		w.dirty = true
		w.pos = evs[i].LSN
	}
	mWALBytes.Add(written)
	if w.policy == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// syncLocked fsyncs if anything was written since the last successful
// sync. Caller holds w.mu.
func (w *LogWriter) syncLocked() error {
	if !w.dirty {
		return nil
	}
	syncStart := time.Now()
	err := w.f.Sync()
	mWALFsyncs.Inc()
	mWALFsyncSeconds.ObserveSince(syncStart)
	if err == nil {
		w.dirty = false
	}
	return err
}

// Position returns the LSN written to the file so far.
func (w *LogWriter) Position() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pos
}

// Close stops following, drains every already-committed event to disk,
// fsyncs whatever the policy (nothing buffered survives Close), and
// closes the file. It returns the first error encountered, including
// any earlier append failure that stopped the background writer.
func (w *LogWriter) Close() error {
	w.cancel()
	w.wg.Wait()
	w.mu.Lock()
	firstErr := w.err
	w.mu.Unlock()
	for {
		evs, err := w.db.binlog.ReadFrom(w.Position(), 1024)
		if err != nil || len(evs) == 0 {
			break
		}
		if err := w.writeEvents(evs); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
	}
	w.mu.Lock()
	if err := w.syncLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.mu.Unlock()
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// countingByteReader tracks the file offset consumed through a
// bufio.Reader so recovery knows exactly where the last valid record
// ends.
type countingByteReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.off += int64(n)
	return n, err
}

// ReplayLog replays the on-disk binlog file into an existing DB
// (schemas/tables already present are filled idempotently). Returns
// the last LSN applied. Used by daemons that construct their realm
// schemas first and then recover prior state into them.
//
// Every record is validated (length sanity + CRC32C) before it is
// applied. The first torn record — short length prefix, checksum or
// payload, impossible length, or checksum mismatch: what a crash
// mid-append leaves — ends recovery: the file is truncated at the end
// of the last valid record and the writer resumes appending from
// there. A record whose checksum holds but whose payload does not
// decode is not a torn write (the bytes are the ones that were
// written): the records before it are applied, the file is left
// untouched — later records may be perfectly good — and an error
// naming the offset is returned. An apply error on a valid record is
// likewise a real fault and is returned.
func ReplayLog(db *DB, path string) (uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	canTruncate := true
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		// Read-only media or permissions: recover what we can, but
		// leave the torn tail in place.
		f, err = os.Open(path)
		if err != nil {
			return 0, err
		}
		canTruncate = false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	cr := &countingByteReader{br: bufio.NewReader(f)}
	var last uint64
	var validOff int64
	var torn string
	var undecodable error
	// Validated events are applied in batches: one write transaction —
	// one lock acquisition and one snapshot publish per touched table —
	// per replayBatch events instead of per event.
	const replayBatch = 1024
	var batch []Event
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		first, lastLSN := batch[0].LSN, batch[len(batch)-1].LSN
		if _, err := db.ApplyAll(batch); err != nil {
			return fmt.Errorf("warehouse: recover %s in LSN range [%d, %d]: %w", path, first, lastLSN, err)
		}
		last = lastLSN
		batch = batch[:0]
		return nil
	}
	var frame []byte // reused: decoded events own their strings
	for {
		frameLen, err := binary.ReadUvarint(cr)
		if err != nil {
			if err == io.EOF && cr.off == validOff {
				break // clean end of log
			}
			torn = "torn length prefix"
			break
		}
		if frameLen == 0 || frameLen > maxWALRecord {
			torn = fmt.Sprintf("impossible record length %d", frameLen)
			break
		}
		var crcBuf [walHeaderLen]byte
		if _, err := io.ReadFull(cr, crcBuf[:]); err != nil {
			torn = "torn checksum"
			break
		}
		// A length the rest of the file cannot hold is a torn payload;
		// nothing is allocated for it.
		if int64(frameLen) > info.Size()-cr.off {
			torn = "torn payload"
			break
		}
		if uint64(cap(frame)) < frameLen {
			frame = make([]byte, frameLen)
		}
		frame = frame[:frameLen]
		if _, err := io.ReadFull(cr, frame); err != nil {
			torn = "torn payload"
			break
		}
		if got, want := crc32.Checksum(frame, castagnoli), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
			torn = fmt.Sprintf("checksum mismatch (%08x != %08x)", got, want)
			break
		}
		if frame[0] != walBinary {
			undecodable = fmt.Errorf("record tag %#02x is not the binary event codec's %#02x: a WAL written before 8.1 holds gob records, which are no longer read; re-ingest the data",
				frame[0], walBinary)
			break
		}
		evs, err := DecodeEvents(frame[1:])
		if err != nil {
			undecodable = err
			break
		}
		batch = append(batch, evs...)
		if len(batch) >= replayBatch {
			if err := flush(); err != nil {
				return last, err
			}
		}
		validOff = cr.off
	}
	if err := flush(); err != nil {
		return last, err
	}
	if undecodable != nil {
		return last, fmt.Errorf("warehouse: recover %s: the record at offset %d (after LSN %d) has a valid checksum but does not decode (records of builds before wire format 4 that hold a table definition or a bulk load do not: re-ingest); file left untouched: %w",
			path, validOff, last, undecodable)
	}
	if torn != "" {
		mWALTruncated.Inc()
		if canTruncate {
			if err := f.Truncate(validOff); err != nil {
				return last, fmt.Errorf("warehouse: recover %s: truncate torn tail: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				return last, fmt.Errorf("warehouse: recover %s: sync after truncate: %w", path, err)
			}
			walLog.Warn("wal recovery truncated torn tail",
				"path", path, "reason", torn, "valid_bytes", validOff, "last_lsn", last)
		} else {
			walLog.Warn("wal recovery found torn tail on read-only file; appending is unsafe",
				"path", path, "reason", torn, "valid_bytes", validOff, "last_lsn", last)
		}
	}
	return last, nil
}
