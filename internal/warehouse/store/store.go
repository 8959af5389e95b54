// Package store provides the pluggable segment backends behind the
// warehouse's tiered storage: immutable, sealed columnar segments that
// either stay on the heap (Mem, the classic all-RAM behavior) or are
// spilled to an mmap-backed on-disk file format (Disk) so cold history
// costs address space instead of resident memory. The warehouse keeps
// each table as a hot in-memory tail plus a list of sealed segments;
// this package owns everything below that line: the column vector
// both tiers hold (Column), the segment file format, mapping, lazy
// materialization, residency accounting, and eviction.
//
// Segments are not a durability mechanism. The WAL and snapshots
// remain the source of truth; a Disk backend discards every file it
// finds on open (torn seals are detected by the CRC footer and counted
// separately) and expects the warehouse to re-seal state as it replays.
package store

// SegmentData is an immutable columnar block of rows: the payload
// handed to Seal, and the view handed back by Handle.View. Views from
// a Disk backend alias the underlying file mapping for numeric
// columns; keep pins the mapping's owner so the pages stay valid for
// as long as any reader holds the view.
type SegmentData struct {
	Cols []Column
	Rows int
	keep any
}

// Handle is a reference to one sealed segment.
type Handle interface {
	// View returns the segment's readable columns, materializing them
	// if needed. The returned view stays valid for as long as the
	// caller references it, even if the backend evicts its own copy.
	View() *SegmentData
	// Peek returns the currently materialized view, or nil if the
	// segment is cold. It never triggers a load and never counts as a
	// use for eviction — callers read a resident segment through it and
	// fall back to View only when it is cold.
	Peek() *SegmentData
	// HeapBacked reports whether View returns plain heap slices that
	// are safe to share outside the warehouse's snapshot lifetime
	// (true for Mem segments, false for mapped Disk segments).
	HeapBacked() bool
}

// Backend seals, serves, and drops segments. Implementations are safe
// for concurrent use.
type Backend interface {
	// Name identifies the backend ("memory" or "disk").
	Name() string
	// Seal persists sd as a new immutable segment. sd must not be
	// mutated afterwards. On error, no segment is created and the
	// caller keeps serving the data from its own copy.
	Seal(schema, table string, sd *SegmentData) (Handle, error)
	// Drop releases a sealed segment the warehouse no longer
	// references (table truncated, compacted, or bulk-replaced).
	Drop(h Handle)
	// Close releases backend resources. Handles already held remain
	// readable (mappings stay valid until their owners are collected).
	Close() error
}

// NewSegmentData builds a seal payload. It exists so the warehouse can
// construct payloads without touching unexported fields.
func NewSegmentData(rows int, cols []Column) *SegmentData {
	return &SegmentData{Cols: cols, Rows: rows}
}
