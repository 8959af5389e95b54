package warehouse_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/ingest"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

// cellsEqual demands what the codec promises per cell: floats equal
// bit for bit, times the same instant, everything else identical.
func cellsEqual(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	default:
		return a == b
	}
}

// rowsEqual distinguishes a nil row from an empty one.
func rowsEqual(a, b []any) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !cellsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func defsEqual(a, b *warehouse.TableDef) bool {
	if a == nil || b == nil {
		return a == b
	}
	// slices.Equal goes by length: gob does not tell nil from empty.
	return a.Name == b.Name && a.Derived == b.Derived &&
		slices.Equal(a.Columns, b.Columns) &&
		slices.Equal(a.PrimaryKey, b.PrimaryKey) &&
		slices.EqualFunc(a.Indexes, b.Indexes, slices.Equal[[]string])
}

func colsEqual(a, b *warehouse.ColumnData) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && slices.Equal(a.Names, b.Names) &&
		slices.EqualFunc(a.Cols, b.Cols, func(x, y warehouse.ColumnVector) bool {
			return x.Type == y.Type &&
				slices.Equal(x.Ints, y.Ints) &&
				slices.EqualFunc(x.Floats, y.Floats, func(f, g float64) bool { return math.Float64bits(f) == math.Float64bits(g) }) &&
				slices.Equal(x.Strs, y.Strs) &&
				slices.Equal(x.Bools, y.Bools) &&
				slices.EqualFunc(x.Times, y.Times, time.Time.Equal) &&
				slices.Equal(x.Nulls, y.Nulls)
		})
}

// eventsDiffer returns a description of the first difference, or "".
func eventsDiffer(a, b []warehouse.Event) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d events vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x.LSN != y.LSN, x.Kind != y.Kind, x.Schema != y.Schema, x.Table != y.Table:
			return fmt.Sprintf("event %d header: %d %v %s.%s vs %d %v %s.%s", i,
				x.LSN, x.Kind, x.Schema, x.Table, y.LSN, y.Kind, y.Schema, y.Table)
		case !x.Time.Equal(y.Time):
			return fmt.Sprintf("event %d time: %v vs %v", i, x.Time, y.Time)
		case !rowsEqual(x.Row, y.Row):
			return fmt.Sprintf("event %d row: %#v vs %#v", i, x.Row, y.Row)
		case !rowsEqual(x.Old, y.Old):
			return fmt.Sprintf("event %d old: %#v vs %#v", i, x.Old, y.Old)
		case !defsEqual(x.Def, y.Def):
			return fmt.Sprintf("event %d def: %+v vs %+v", i, x.Def, y.Def)
		case !colsEqual(x.Cols, y.Cols):
			return fmt.Sprintf("event %d cols: %+v vs %+v", i, x.Cols, y.Cols)
		}
	}
	return ""
}

// roundTrip encodes and decodes evs and fails the test on any
// difference; it returns the encoding.
func roundTrip(t testing.TB, evs []warehouse.Event) []byte {
	t.Helper()
	b := warehouse.AppendEvents(nil, evs)
	got, err := warehouse.DecodeEvents(b)
	if err != nil {
		t.Fatalf("decode of %d encoded events: %v", len(evs), err)
	}
	if diff := eventsDiffer(evs, got); diff != "" {
		t.Fatalf("round trip: %s", diff)
	}
	for i, ev := range got {
		if ev.Time.Location() != time.UTC {
			t.Fatalf("event %d time decoded in %v, want UTC", i, ev.Time.Location())
		}
	}
	return b
}

// edgeCells are the values exactness is about.
var edgeCells = []any{
	nil, true, false,
	int64(0), int64(-1), int64(255), int64(256), int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), 1.0, -1.0, 0.5, 3600.0, 1e300, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	float64(1 << 53), float64(1<<53 - 1), float64(1<<53 + 2), -float64(1 << 53), float64(1 << 62), -float64(1 << 63),
	"", "x", "résumé", "\xff\xfe not utf-8 \x00", strings.Repeat("long ", 60),
	time.Time{}, time.Unix(0, 0).UTC(), time.Unix(0, 1).UTC(), time.Unix(-1, 999999999).UTC(),
	time.Date(1969, 7, 20, 20, 17, 40, 0, time.UTC), time.Date(2017, 5, 1, 3, 0, 0, 0, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
	time.Date(2017, 5, 1, 3, 0, 0, 5, time.FixedZone("x", 3600*5+1800)),
}

func randomCell(rng *rand.Rand) any {
	switch rng.Intn(6) {
	case 0:
		return rng.Int63() - rng.Int63()
	case 1:
		return rng.NormFloat64() * 1e6
	case 2:
		return float64(rng.Intn(100000)) // an integer in a float column
	case 3:
		return fmt.Sprintf("u%d", rng.Intn(50))
	case 4:
		return time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9)).UTC()
	default:
		return edgeCells[rng.Intn(len(edgeCells))]
	}
}

// randomEvents builds a run of events of every kind over a few tables
// of fixed widths, so that the previous-row context switches mid-buffer
// and cells repeat the row before.
func randomEvents(rng *rand.Rand, n int) []warehouse.Event {
	type table struct {
		schema, name string
		width        int
		last         []any
	}
	tables := []*table{
		{schema: "modw", name: "jobfact", width: 17},
		{schema: "modw", name: "small", width: 3},
		{schema: "modw_cloud", name: "jobfact", width: 17},
		{schema: "", name: "", width: 1},
	}
	randomRow := func(tb *table) []any {
		width := tb.width
		if rng.Intn(20) == 0 {
			width = rng.Intn(4) // off-width, including empty
		}
		row := make([]any, width)
		for i := range row {
			if len(tb.last) == width && rng.Intn(3) == 0 {
				row[i] = tb.last[i]
			} else {
				row[i] = randomCell(rng)
			}
		}
		tb.last = row
		return row
	}
	evs := make([]warehouse.Event, n)
	lsn := uint64(rng.Intn(3))
	now := time.Date(2026, 9, 26, 12, 0, 0, 0, time.UTC)
	for i := range evs {
		tb := tables[0]
		if rng.Intn(4) == 0 {
			tb = tables[rng.Intn(len(tables))]
		}
		switch rng.Intn(12) {
		case 0:
			lsn = rng.Uint64()
		case 1:
			lsn = math.MaxUint64
		default:
			lsn++
		}
		ev := warehouse.Event{LSN: lsn, Schema: tb.schema, Table: tb.name}
		switch rng.Intn(10) {
		case 0:
			ev.Time = time.Time{}
		case 1:
			ev.Time = edgeCells[len(edgeCells)-1-rng.Intn(9)].(time.Time)
		case 2:
			ev.Time = time.Now() // local zone, monotonic reading
		default:
			now = now.Add(time.Duration(rng.Int63n(3e9)))
			ev.Time = now
		}
		switch kind := warehouse.EventKind(1 + rng.Intn(8)); kind {
		case warehouse.EvInsert, warehouse.EvUpdate:
			ev.Kind, ev.Row = kind, randomRow(tb)
			if kind == warehouse.EvUpdate && rng.Intn(2) == 0 {
				ev.Old = randomRow(tb)
			}
		case warehouse.EvDelete:
			ev.Kind, ev.Old = kind, randomRow(tb)
		case warehouse.EvCreateTable:
			def := jobs.Def()
			ev.Kind, ev.Def = kind, &def
		case warehouse.EvLoad:
			ev.Kind = kind
			// A NULL cell's payload is not coded: it decodes as the zero
			// value, which is what every vector the warehouse builds holds.
			ev.Cols = &warehouse.ColumnData{Rows: 3, Names: []string{"a", "b", "c", "d", "e"}, Cols: []warehouse.ColumnVector{
				{Type: warehouse.TypeInt, Ints: []int64{1, math.MinInt64, math.MinInt64}},
				{Type: warehouse.TypeFloat, Floats: []float64{math.NaN(), math.Copysign(0, -1), 0}, Nulls: []bool{false, false, true}},
				{Type: warehouse.TypeTime, Times: []time.Time{now, {}, {}}},
				{Type: warehouse.TypeString, Strs: []string{"", "x", "x"}, Nulls: []bool{true, false, false}},
				{Type: warehouse.TypeBool, Bools: []bool{true, true, false}},
			}}
		default:
			ev.Kind = kind // TRUNCATE, CREATE_SCHEMA, DROP_SCHEMA: no payload
		}
		evs[i] = ev
	}
	return evs
}

// TestEventCodecRoundTripIsExact: every kind, every edge value, mixed
// tables.
func TestEventCodecRoundTripIsExact(t *testing.T) {
	// Each edge value alone, then again as the row after itself (the
	// cellSame path) and as the row after every other value.
	for _, v := range edgeCells {
		roundTrip(t, []warehouse.Event{{LSN: 1, Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{v}}})
	}
	var evs []warehouse.Event
	for i, v := range edgeCells {
		for _, w := range []any{v, edgeCells[(i+1)%len(edgeCells)]} {
			evs = append(evs, warehouse.Event{LSN: uint64(len(evs) + 1), Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{v, w}})
			evs = append(evs, warehouse.Event{LSN: uint64(len(evs) + 1), Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{w, v}})
		}
	}
	roundTrip(t, evs)

	// Nil versus empty rows, Old on delete, the zero Event.Time.
	b := roundTrip(t, []warehouse.Event{
		{LSN: 7, Kind: warehouse.EvInsert, Schema: "s", Table: "t", Row: []any{}},
		{LSN: 8, Kind: warehouse.EvInsert, Schema: "s", Table: "t"},
		{LSN: 9, Kind: warehouse.EvDelete, Schema: "s", Table: "t", Old: []any{int64(3), "k"}},
		{LSN: 10, Kind: warehouse.EvUpdate, Schema: "s", Table: "t", Row: []any{int64(3), "k"}, Old: []any{int64(3), "j"}},
	})
	got, _ := warehouse.DecodeEvents(b)
	if !got[0].Time.IsZero() || got[0].Row == nil || got[1].Row != nil || got[2].Row != nil || got[2].Old == nil {
		t.Fatalf("nil/empty/zero-time not preserved: %+v", got)
	}

	if got, err := warehouse.DecodeEvents(warehouse.AppendEvents(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty slice round trip = %v, %v", got, err)
	}
	// AppendEvents appends: what dst held stays in front.
	if b := warehouse.AppendEvents([]byte("prefix"), evs[:3]); !bytes.HasPrefix(b, []byte("prefix")) ||
		!bytes.Equal(b[6:], warehouse.AppendEvents(nil, evs[:3])) {
		t.Fatal("AppendEvents does not append to dst")
	}

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		roundTrip(t, randomEvents(rng, 1+rng.Intn(60)))
	}
}

// ingestedBinlogs returns the binlog of a satellite that ingested all
// three realms (DDL, inserts, upserts, a truncate of the cloud session
// table, a delete, a dropped schema) and the binlog of a
// second DB restored from its snapshot (DDL and one LOAD per table).
func ingestedBinlogs(t testing.TB) (live, restored []warehouse.Event) {
	t.Helper()
	db := warehouse.Open("sat")
	if _, err := jobs.Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := cloud.Setup(db); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Setup(db); err != nil {
		t.Fatal(err)
	}
	p := &ingest.Pipeline{DB: db, Converter: workload.SUConverter2017()}
	if _, err := p.IngestJobRecords(workload.GenerateJobs(workload.XSEDE2017Models()[0], 10, 3)[:120]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.IngestCloudEvents(workload.CCRCloud2017(6, 3), time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	snaps := workload.CCRStorage2017(3, 3)[:40]
	for i := 0; i < 2; i++ { // the second pass upserts: UPDATE events
		if _, err := p.IngestStorageSnapshots(snaps); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := db.TableIn(cloud.SchemaName, cloud.SessionTable)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	db.Do(func() error {
		sess.Truncate()
		var oneNode [][]any
		tab.Scan(func(r warehouse.Row) bool {
			if r.Int(jobs.ColNodes) == 1 {
				oneNode = append(oneNode, []any{r.Get(jobs.ColResource), r.Get(jobs.ColJobID)})
			}
			return true
		})
		for _, key := range oneNode {
			tab.DeleteByKey(key...)
		}
		return nil
	})
	var snap bytes.Buffer
	if err := db.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	db.EnsureSchema("scratch")
	if _, err := db.ApplyAll([]warehouse.Event{{Kind: warehouse.EvDropSchema, Schema: "scratch"}}); err != nil {
		t.Fatal(err)
	}
	db2 := warehouse.Open("restored")
	if _, err := db2.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if live, err = db.Binlog().ReadFrom(0, 0); err != nil {
		t.Fatal(err)
	}
	if restored, err = db2.Binlog().ReadFrom(0, 0); err != nil {
		t.Fatal(err)
	}
	kinds := map[warehouse.EventKind]int{}
	for _, ev := range append(append([]warehouse.Event(nil), live...), restored...) {
		kinds[ev.Kind]++
	}
	for k := warehouse.EvInsert; k <= warehouse.EvLoad; k++ {
		if kinds[k] == 0 {
			t.Fatalf("ingested binlogs hold no %v event: %v", k, kinds)
		}
	}
	return live, restored
}

// TestEventCodecRoundTripsRealBinlogs: whole binlogs, as 512-event
// frames and as single-event WAL payloads.
func TestEventCodecRoundTripsRealBinlogs(t *testing.T) {
	live, restored := ingestedBinlogs(t)
	for _, evs := range [][]warehouse.Event{live, restored} {
		for len(evs) > 0 {
			n := min(512, len(evs))
			roundTrip(t, evs[:n])
			evs = evs[n:]
		}
	}
	for i := range live {
		roundTrip(t, live[i:i+1])
	}
}

// frame assembles a hand-written buffer from bytes, strings (written
// length-prefixed) and uint64s (written as uvarints).
func frame(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch x := p.(type) {
		case int:
			b = append(b, byte(x))
		case uint64:
			b = binary.AppendUvarint(b, x)
		case string:
			b = append(binary.AppendUvarint(b, uint64(len(x))), x...)
		case []byte:
			b = append(b, x...)
		}
	}
	return b
}

// TestDecodeEventsRejectsHostileBytes pins the wire format's numbers
// (kinds 1–8, flag bits 0–5, cell tags 0–8) and the decoder's
// strictness: every malformed buffer is an error, and a declared size
// the bytes cannot back is refused before anything is allocated for it.
func TestDecodeEventsRejectsHostileBytes(t *testing.T) {
	const (
		sameTable, nextLSN, hasRow, hasOld, hasDef, hasCols                  = 1, 2, 4, 8, 16, 32
		tNull, tInt, tFloat, tFloatInt, tString, tFalse, tTrue, tTime, tSame = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	// One insert into s.t at LSN 1, epoch commit time, row (5, "ab").
	head := frame(1, nextLSN|hasRow, "s", "t", 0, 0) // kind first
	valid := frame(1, head, 2, tInt, 10, tString, "ab")
	evs, err := warehouse.DecodeEvents(valid)
	if err != nil || len(evs) != 1 || evs[0].Row[0] != int64(5) || evs[0].Row[1] != "ab" || evs[0].LSN != 1 {
		t.Fatalf("hand-written frame decoded to %+v, %v", evs, err)
	}
	if !bytes.Equal(warehouse.AppendEvents(nil, evs), valid) {
		t.Fatal("AppendEvents does not reproduce the hand-written frame")
	}
	for n := 0; n < len(valid); n++ {
		if _, err := warehouse.DecodeEvents(valid[:n]); err == nil {
			t.Errorf("prefix of %d bytes of a %d-byte frame decoded", n, len(valid))
		}
	}
	huge := uint64(1) << 40
	next := frame(1, sameTable|nextLSN|hasRow, 0, 0) // a second event of s.t
	cases := map[string][]byte{
		"trailing byte":                  append(append([]byte(nil), valid...), 0),
		"event count beyond the bytes":   frame(huge, head, 0),
		"event count of max uint64":      frame(uint64(math.MaxUint64), head, 0),
		"row width beyond the bytes":     frame(1, head, huge, tNull),
		"string length beyond the bytes": frame(1, head, 1, tString, huge, "ab"),
		"schema length beyond the bytes": frame(1, 1, nextLSN, huge, "s"),
		"def name length beyond bytes":   frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, huge, 1),
		"overlong varint":                frame(1, head, 1, tInt, bytes.Repeat([]byte{0xff}, 11)),
		"unknown cell tag":               frame(1, head, 1, 9),
		"event kind 0":                   frame(1, 0, head[1:], 0),
		"event kind 9":                   frame(1, 9, head[1:], 0),
		"unknown flag bit 6":             frame(1, 1, nextLSN|0x40, "s", "t", 0, 0),
		"unknown flag bit 7":             frame(1, 1, nextLSN|0x80, "s", "t", 0, 0),
		"same-cell in the first row":     frame(1, head, 1, tSame),
		"same-cell after another width":  frame(2, head, 2, tNull, tNull, next, 1, tSame),
		"same-cell after another table":  frame(2, head, 1, tNull, 1, nextLSN|hasRow, "s", "u", 0, 0, 1, tSame),
		"same-cell after a switch back":  frame(3, head, 1, tInt, 10, 1, nextLSN|hasRow, "s", "u", 0, 0, 1, tNull, 1, nextLSN|hasRow, "s", "t", 0, 0, 1, tSame),
		"commit nanoseconds negative":    frame(1, 1, nextLSN, "s", "t", 0, 1),
		"commit nanoseconds over 1e9":    frame(1, 1, nextLSN, "s", "t", 0, uint64(2e9)),
		"time cell nanoseconds over 1e9": frame(1, head, 1, tTime, 0, uint64(1e9)),
		"float cell cut short":           frame(1, head, 1, tFloat, 1, 2, 3),
		// Malformed CREATE_TABLE definitions and LOAD payloads.
		"def of a name only":                frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t"),
		"def column count beyond the bytes": frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t", huge, "a", 1, 0),
		"def nullable flag of 2":            frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t", 1, "a", 1, 2, 0, 0, 0),
		"def derived flag of 2":             frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t", 1, "a", 1, 0, 0, 0, 2),
		"def key count beyond the bytes":    frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t", 1, "a", 1, 0, huge, "a", 0, 0),
		"def index width beyond the bytes":  frame(1, 6, nextLSN|hasDef, "s", "t", 0, 0, "t", 1, "a", 1, 0, 0, 1, huge, "a", 0),
		"cols row count beyond the bytes":   frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, huge, 1, "a", 1, 0, tInt, 2),
		"cols column count beyond bytes":    frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, huge, "a", 1, 0, tInt, 2),
		"cols column type 0":                frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 0, 0, tInt, 2),
		"cols column type 6":                frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 6, 0, tInt, 2),
		"cols validity flag of 2":           frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 1, 2, tInt, 2),
		"cols string cell in an int column": frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 1, 0, tString, "x"),
		"cols int cell in a float column":   frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 2, 0, tInt, 2),
		"cols NULL without validity":        frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 1, 0, tNull),
		"cols same-cell in the first row":   frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 1, 1, "a", 1, 1, tSame),
		"cols cut short":                    frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, 2, 1, "a", 1, 0, tInt, 2),
		// Declared sizes the bytes can back, over bytes that are not
		// what was declared: allocation follows what decodes.
		"2M events declared over junk":        frame(uint64(2<<20), bytes.Repeat([]byte{0xff}, 8<<20)),
		"2M events declared, 100 there":       frame(uint64(2<<20), bytes.Repeat(frame(1, sameTable|nextLSN, 0, 0), 100), bytes.Repeat([]byte{0xff}, 8<<20)),
		"row of 4M cells declared over junk":  frame(1, head, uint64(4<<20), bytes.Repeat([]byte{0xff}, 4<<20)),
		"row of 4M cells declared, 100 there": frame(1, head, uint64(4<<20), make([]byte, 100), bytes.Repeat([]byte{0xff}, 4<<20)),
		"LOAD of 4M rows declared over junk":  frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, uint64(4<<20), 1, "a", 5, 1, bytes.Repeat([]byte{0xff}, 4<<20)),
		"LOAD of 4M rows declared, 100 there": frame(1, 8, nextLSN|hasCols, "s", "t", 0, 0, uint64(4<<20), 1, "a", 5, 1, make([]byte, 100), bytes.Repeat([]byte{0xff}, 4<<20)),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		evs, err := warehouse.DecodeEvents(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %+v", name, evs)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing", name, grew)
		}
	}
}

// FuzzDecodeEvents: no input panics, and whatever decodes re-encodes
// to bytes that decode to an equal slice and applies to an empty
// warehouse without panicking, as a hub would apply a peer's frame —
// errors are the expected outcome there. The seed corpus (which plain
// `go test` runs too) is real ingest batches of all three realms, each
// DDL kind, a LOAD, a CREATE_TABLE of every column type with a key,
// an index and the Derived flag, and a LOAD whose payload disagrees
// with the table created just before it.
func FuzzDecodeEvents(f *testing.F) {
	live, restored := ingestedBinlogs(f)
	for _, evs := range [][]warehouse.Event{live, restored} {
		for len(evs) > 0 {
			n := min(16, len(evs))
			f.Add(warehouse.AppendEvents(nil, evs[:n]))
			evs = evs[n:]
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(warehouse.AppendEvents(nil, randomEvents(rng, 12)))
	}
	f.Add([]byte{})
	every := warehouse.TableDef{Name: "every", Derived: true, PrimaryKey: []string{"i", "s"}, Indexes: [][]string{{"t"}, {"b", "f"}},
		Columns: []warehouse.Column{{Name: "i", Type: warehouse.TypeInt}, {Name: "f", Type: warehouse.TypeFloat, Nullable: true},
			{Name: "s", Type: warehouse.TypeString}, {Name: "b", Type: warehouse.TypeBool, Nullable: true}, {Name: "t", Type: warehouse.TypeTime}}}
	hostile := warehouse.TableDef{Name: "t", Columns: []warehouse.Column{{Name: "a", Type: warehouse.TypeInt}}}
	f.Add(warehouse.AppendEvents(nil, []warehouse.Event{
		{LSN: 1, Kind: warehouse.EvCreateTable, Schema: "fed_siteA", Table: "every", Def: &every},
		{LSN: 2, Kind: warehouse.EvCreateTable, Schema: "fed_siteA", Table: "t", Def: &hostile},
		{LSN: 3, Kind: warehouse.EvLoad, Schema: "fed_siteA", Table: "t", Cols: &warehouse.ColumnData{
			Rows: 1, Names: []string{"a"}, Cols: []warehouse.ColumnVector{{Type: warehouse.TypeString, Strs: []string{"x"}}}}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		evs, err := warehouse.DecodeEvents(b)
		if err != nil {
			return
		}
		_, _ = warehouse.OpenWithoutBinlog("fuzz").ApplyAll(evs) // errors are fine, panics are not
		again, err := warehouse.DecodeEvents(warehouse.AppendEvents(nil, evs))
		if err != nil {
			t.Fatalf("re-encoded events do not decode: %v", err)
		}
		if diff := eventsDiffer(evs, again); diff != "" {
			t.Fatalf("re-encoding changed the events: %s", diff)
		}
	})
}

// jobFactEvents returns n consecutive job-fact inserts as the sender
// sees them: real generated jobs, hub schema, consecutive LSNs.
func jobFactEvents(t testing.TB, n int) []warehouse.Event {
	t.Helper()
	conv := workload.SUConverter2017()
	recs := workload.GenerateJobs(workload.XSEDE2017Models()[0], 60, 7)
	if len(recs) < n {
		t.Fatalf("generator made %d jobs, need %d", len(recs), n)
	}
	evs := make([]warehouse.Event, n)
	now := time.Date(2026, 9, 26, 12, 0, 0, 0, time.UTC)
	for i := range evs {
		row, err := jobs.FactRowFromRecord(recs[i], conv)
		if err != nil {
			t.Fatal(err)
		}
		now = now.Add(1500 * time.Nanosecond)
		evs[i] = warehouse.Event{LSN: uint64(1000 + i), Time: now, Kind: warehouse.EvInsert,
			Schema: "fed_siteA", Table: jobs.FactTable, Row: row}
	}
	return evs
}

// TestEventCodecAllocationCeilings: encoding a 17-column fact into a
// reused buffer allocates nothing. Decoding allocates the row and, for
// each cell that does not repeat the row before, at most its box — plus
// its bytes for a string — and nothing for a cell that does repeat; a
// buffer's first event also pays for the event slice and the two table
// names. (Cells small enough for the runtime not to box come free.)
func TestEventCodecAllocationCeilings(t *testing.T) {
	evs := jobFactEvents(t, 2)
	if len(evs[1].Row) != 17 {
		t.Fatalf("job fact has %d columns, want 17", len(evs[1].Row))
	}
	one, two := warehouse.AppendEvents(nil, evs[:1]), warehouse.AppendEvents(nil, evs)
	var buf []byte
	for _, n := range []int{1, 2} {
		buf = warehouse.AppendEvents(buf[:0], evs[:n])
		if allocs := testing.AllocsPerRun(100, func() { buf = warehouse.AppendEvents(buf[:0], evs[:n]) }); allocs != 0 {
			t.Errorf("encoding %d fact insert(s) into a reused buffer allocates %.0f objects, want 0", n, allocs)
		}
	}
	decode := func(b []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := warehouse.DecodeEvents(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	// ceiling is one object per cell of row that differs from prev, two
	// for a string.
	ceiling := func(row, prev []any) (n float64) {
		for i, v := range row {
			if prev != nil && cellsEqual(v, prev[i]) {
				continue
			}
			n++
			if _, ok := v.(string); ok {
				n++
			}
		}
		return n
	}
	// The second fact's cost is the pair's minus the first's.
	first, second := decode(one), decode(two)-decode(one)
	firstMax, secondMax := ceiling(evs[0].Row, nil)+4, ceiling(evs[1].Row, evs[0].Row)+1
	t.Logf("decode: first fact %.0f allocs (ceiling %.0f), the one after it %.0f (ceiling %.0f)", first, firstMax, second, secondMax)
	if first > firstMax {
		t.Errorf("decoding one fact allocates %.0f objects, ceiling %.0f", first, firstMax)
	}
	if second > secondMax {
		t.Errorf("decoding a fact after another allocates %.0f objects, ceiling %.0f", second, secondMax)
	}
	if secondMax >= firstMax-4 {
		t.Errorf("the second fact repeats no cell of the first (ceilings %.0f and %.0f): the guard exercises nothing", secondMax, firstMax)
	}
}

var benchSink int

// BenchmarkEventCodec measures what an event costs to serialise, per
// event, for the two shapes the system writes: a 512-event replication
// frame of job-fact inserts and a single-event WAL record payload.
// B/event is reported as a metric.
//
// The gob encoding this codec replaced, on the same events and box
// (2 vCPU, go1.24, the parent commit 05fa27e): a WAL record built with a
// fresh gob.NewEncoder was 1 034 B and 24.3 µs to encode (44 allocs)
// and 81 µs to decode (475 allocs); a 512-event frame through one
// long-lived encoder/decoder pair was 366 B and 11.5 µs per event
// round trip (49 allocs). The gob/* sub-benchmarks below reproduce
// those figures from this tree.
func BenchmarkEventCodec(b *testing.B) {
	evs := jobFactEvents(b, 512)
	perEvent := func(b *testing.B, bytes, events int) {
		b.ReportMetric(float64(bytes)/float64(events), "B/event")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	}
	b.Run("frame512/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = warehouse.AppendEvents(buf[:0], evs)
		}
		perEvent(b, len(buf), len(evs))
	})
	b.Run("frame512/decode", func(b *testing.B) {
		b.ReportAllocs()
		buf := warehouse.AppendEvents(nil, evs)
		for i := 0; i < b.N; i++ {
			got, err := warehouse.DecodeEvents(buf)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(got)
		}
		perEvent(b, len(buf), len(evs))
	})
	b.Run("walrecord/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = warehouse.AppendEvents(buf[:0], evs[i%len(evs):][:1])
		}
		perEvent(b, len(buf), 1)
	})
	b.Run("walrecord/decode", func(b *testing.B) {
		b.ReportAllocs()
		buf := warehouse.AppendEvents(nil, evs[:1])
		for i := 0; i < b.N; i++ {
			got, err := warehouse.DecodeEvents(buf)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += len(got)
		}
		perEvent(b, len(buf), 1)
	})
	b.Run("gob/walrecord/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(evs[i%len(evs)]); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b, buf.Len(), 1)
	})
	b.Run("gob/walrecord/decode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(evs[0]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			var ev warehouse.Event
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&ev); err != nil {
				b.Fatal(err)
			}
			benchSink += len(ev.Row)
		}
		perEvent(b, buf.Len(), 1)
	})
	b.Run("gob/frame512/roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		var wire bytes.Buffer
		enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
		n := 0
		for i := 0; i < b.N; i++ {
			before := wire.Len()
			if err := enc.Encode(evs); err != nil {
				b.Fatal(err)
			}
			n = wire.Len() - before
			var got []warehouse.Event
			if err := dec.Decode(&got); err != nil {
				b.Fatal(err)
			}
			benchSink += len(got)
		}
		perEvent(b, n, len(evs))
	})
}
