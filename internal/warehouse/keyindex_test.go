package warehouse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// keyPositions reads the primary-key index slot by slot, apart from any
// probe: every position it holds, by the fmt.Sprint of the key values
// of the row there. A table without a primary key holds none.
func keyPositions(tab *Table) map[string]int {
	m := map[string]int{}
	if tab.pk == nil {
		return m
	}
	for _, s := range tab.pk.slots {
		if s == 0 {
			continue
		}
		pos := slotPos(s)
		r := tab.rowAt(pos)
		key := make([]any, len(tab.pk.cols))
		for n, ci := range tab.pk.cols {
			key[n] = r.cols[ci].Value(r.pos)
		}
		m[fmt.Sprint(key)] = pos
	}
	return m
}

// TestCompositeKeysDoNotCollide: keys that once rendered to the same
// bytes — a string holding the 0x1f separator, the string "\x00" beside
// a NULL — are distinct keys. Each row inserts, GetByKey finds each,
// and DeleteByKey removes only its own.
func TestCompositeKeysDoNotCollide(t *testing.T) {
	db := Open("collide")
	tab, err := db.EnsureSchema("s").EnsureTable(TableDef{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: TypeString, Nullable: true},
			{Name: "b", Type: TypeString},
			{Name: "v", Type: TypeInt},
		},
		PrimaryKey: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2][]any{
		{{"x\x1fy", "z"}, {"x", "y\x1fz"}},
		{{nil, "k"}, {"\x00", "k"}},
	} {
		if err := db.Do(func() error {
			for n, key := range pair {
				if err := tab.InsertRow([]any{key[0], key[1], int64(n)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%q: %v", pair, err)
		}
		for n, key := range pair {
			if r, ok := tab.GetByKey(key...); !ok || r.Int("v") != int64(n) {
				t.Errorf("GetByKey(%q) = %v, %v; want the row with v=%d", key, r.Values(), ok, n)
			}
		}
		if err := db.Do(func() error {
			if !tab.DeleteByKey(pair[0]...) {
				t.Errorf("DeleteByKey(%q) found nothing", pair[0])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := tab.GetByKey(pair[0]...); ok {
			t.Errorf("GetByKey(%q) found the deleted row", pair[0])
		}
		if r, ok := tab.GetByKey(pair[1]...); !ok || r.Int("v") != 1 {
			t.Errorf("deleting %q took %q with it", pair[0], pair[1])
		}
	}
}

// TestKeyCellVariants: a key of every column type is found by values
// coerced as an insert coerces them — an int for an int64, a time in
// another zone for the same instant — and floats are keys by their
// bits: -0 is not 0, and NaNs with different payloads are different
// keys. A value that does not coerce finds nothing.
func TestKeyCellVariants(t *testing.T) {
	db := Open("variants")
	tab, err := db.EnsureSchema("s").EnsureTable(TableDef{
		Name: "t",
		Columns: []Column{
			{Name: "i", Type: TypeInt, Nullable: true},
			{Name: "f", Type: TypeFloat},
			{Name: "b", Type: TypeBool},
			{Name: "ts", Type: TypeTime},
		},
		PrimaryKey: []string{"i", "f", "b", "ts"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	keys := [][]any{
		{int64(1), 2.5, true, ts},
		{int64(1), 2.5, false, ts},
		{nil, 2.5, true, ts},
		{int64(1), 0.0, true, ts},
		{int64(1), math.Copysign(0, -1), true, ts},
		{int64(1), nan1, true, ts},
		{int64(1), nan2, true, ts},
	}
	if err := db.Do(func() error {
		for _, k := range keys {
			if err := tab.InsertRow(k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("distinct keys refused: %v", err)
	}
	for n, k := range keys {
		r, ok := tab.GetByKey(k...)
		if !ok || math.Float64bits(r.Float("f")) != math.Float64bits(k[1].(float64)) || r.Get("b") != k[2] || (r.Get("i") == nil) != (k[0] == nil) {
			t.Errorf("key %d %v: GetByKey = %v, %v", n, k, r.Values(), ok)
		}
	}
	est := time.FixedZone("EST", -5*3600)
	if _, ok := tab.GetByKey(1, float32(2.5), true, ts.In(est)); !ok {
		t.Error("values coercing to a stored key found nothing")
	}
	type odd struct{ X int }
	if _, ok := tab.GetByKey(odd{1}, 2.5, true, ts); ok {
		t.Error("a value of no column type found a row")
	}
	if _, ok := tab.GetByKey(int64(1), 2.5, true); ok {
		t.Error("a key missing a column found a row")
	}
}

// TestKeyIndexHoldsNoPointerPerSlot keeps the key index out of the
// collector's mark work, as TestColumnHoldsNoPointerPerCell does for
// column vectors: no field of keyIndex is, or is a slice of, anything
// holding a pointer per element.
func TestKeyIndexHoldsNoPointerPerSlot(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface,
			reflect.Slice, reflect.String, reflect.UnsafePointer:
			return true
		case reflect.Array:
			return t.Len() > 0 && hasPointers(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if hasPointers(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if !hasPointers(reflect.TypeOf("")) || !hasPointers(reflect.TypeOf(map[string]int(nil))) || hasPointers(reflect.TypeOf(uint64(0))) {
		t.Fatal("hasPointers misjudges string, map or uint64")
	}
	typ := reflect.TypeOf(keyIndex{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Slice {
			if hasPointers(f.Type.Elem()) {
				t.Errorf("keyIndex.%s is %v: its elements hold pointers the collector walks one by one", f.Name, f.Type)
			}
		} else if hasPointers(f.Type) {
			t.Errorf("keyIndex.%s is %v, which holds a pointer", f.Name, f.Type)
		}
	}
	// A table has one key index, its primary key's.
	var ixFields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Table{})) {
		if strings.Contains(f.Type.String(), "keyIndex") {
			ixFields = append(ixFields, f.Name+" "+f.Type.String())
		}
	}
	if want := "pk *warehouse.keyIndex"; len(ixFields) != 1 || ixFields[0] != want {
		t.Errorf("Table's key index fields are %q, want only %q", ixFields, want)
	}
}

// TestKeyLookupsAllocateNothing: GetByKey of a present key allocates
// nothing, on a composite key and on a string key, and an UpsertColumns
// of keys that are all present allocates nothing per key: its
// allocations do not grow with the batch beyond the one slice of
// replaced positions and the vectors' amortized growth. Nor does it
// grow the key index, which keeps the size n keys need.
func TestKeyLookupsAllocateNothing(t *testing.T) {
	db := OpenOptions("allocs", Options{NoBinlog: true})
	keyed, err := db.EnsureSchema("s").EnsureTable(keyedDef())
	if err != nil {
		t.Fatal(err)
	}
	byName, err := db.EnsureSchema("s").EnsureTable(TableDef{
		Name:       "names",
		Columns:    []Column{{Name: "name", Type: TypeString}, {Name: "site", Type: TypeString}, {Name: "v", Type: TypeFloat}},
		PrimaryKey: []string{"site", "name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	rows := randomKeyedRows(rand.New(rand.NewSource(3)), n, n)
	named := make([][]any, n)
	for i := range named {
		named[i] = []any{fmt.Sprintf("user%d", i), "site", float64(i)}
	}
	if err := db.Do(func() error {
		if err := keyed.UpsertColumns(columnDataOf(keyed.def, rows), nil); err != nil {
			return err
		}
		return byName.UpsertColumns(columnDataOf(byName.def, named), nil)
	}); err != nil {
		t.Fatal(err)
	}
	id, b := rows[7][0], rows[7][3]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := keyed.GetByKey(id, b); !ok {
			t.Fatal("present key not found")
		}
	}); allocs != 0 {
		t.Errorf("GetByKey of a composite key allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := byName.GetByKey("site", "user9"); !ok {
			t.Fatal("present key not found")
		}
	}); allocs != 0 {
		t.Errorf("GetByKey of a string key allocates %v times", allocs)
	}
	// The batches run under the DB lock but outside a transaction, whose
	// commit would compact the replaced rows: that copies every distinct
	// string once, which is compaction's work, not the key index's.
	cd := columnDataOf(byName.def, named)
	var batchErr error
	db.mu.Lock()
	allocs := testing.AllocsPerRun(20, func() {
		if err := byName.UpsertColumns(cd, nil); err != nil {
			batchErr = err
		}
	})
	db.mu.Unlock()
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	// One allocation per key would be n.
	if allocs > n/32 {
		t.Errorf("UpsertColumns of %d present keys allocates %v times a batch", n, allocs)
	}
	if got, want := len(byName.pk.slots), len(newKeyIndex(nil, n).slots); got != want {
		t.Errorf("after re-upserting %d present keys the key index has %d slots, want %d", n, got, want)
	}
}

// TestKeyIndexWrapsGrowsAndRemoves: every entry stays findable under
// its hash when its run wraps past the last slot, across growth, which
// re-homes every slot, and across removals, which shift the rest of a
// run back; a removed entry is not found. Four of the keys share all 32
// hash bits, as distinct keys may, and are told apart by same alone.
func TestKeyIndexWrapsGrowsAndRemoves(t *testing.T) {
	ix := newKeyIndex([]int{0}, 0)
	last := uint32(len(ix.slots) - 1) // a home slot whose run wraps to slot 0
	other := uint32(len(ix.slots))    // home slot 0, inside that run
	var order []int                   // positions held, each a distinct key
	hashOf := map[int]uint32{}
	add := func(h uint32, pos int) {
		ix.add(h, pos)
		order, hashOf[pos] = append(order, pos), h
	}
	found := func(pos int) bool {
		got, _ := ix.find(hashOf[pos], func(p int) bool { return p == pos })
		return got == pos
	}
	check := func(what string) {
		t.Helper()
		for _, pos := range order {
			if !found(pos) {
				t.Fatalf("%s: position %d not found under hash %#x", what, pos, hashOf[pos])
			}
		}
		if ix.used != len(order) {
			t.Fatalf("%s: %d slots used, want %d", what, ix.used, len(order))
		}
	}
	remove := func(pos int) {
		ix.remove(hashOf[pos], pos)
		order = slices.DeleteFunc(order, func(p int) bool { return p == pos })
		if found(pos) {
			t.Fatalf("removed position %d is still found", pos)
		}
	}
	for pos := 0; pos < 4; pos++ {
		add(last, pos)
		if pos == 1 {
			add(other, 100) // another hash's entry inside the run
		}
	}
	if ix.slots[0] == 0 {
		t.Fatalf("the run does not wrap: %x", ix.slots)
	}
	check("wrapped")
	remove(1)
	check("after a removal")
	for pos := 4; len(ix.slots) == minKeySlots; pos++ {
		add(last, pos)
	}
	check("after growing")
	for len(order) > 0 {
		remove(order[0])
		check("after removing the first")
	}
}

// The table FuzzKeyIndex drives: a composite primary key over a
// nullable string, a string and a nullable float, and two nullable
// columns outside the key.
func fuzzKeyDef() TableDef {
	return TableDef{
		Name: "t",
		Columns: []Column{
			{Name: "a", Type: TypeString, Nullable: true},
			{Name: "b", Type: TypeString},
			{Name: "f", Type: TypeFloat, Nullable: true},
			{Name: "g", Type: TypeString, Nullable: true},
			{Name: "v", Type: TypeInt, Nullable: true},
		},
		PrimaryKey: []string{"a", "b", "f"},
	}
}

// fuzzKey is a row's primary key as a comparable Go value: the model's
// map key. A float is its bits.
type fuzzKey struct {
	a     string
	aNull bool
	b     string
	f     uint64
	fNull bool
}

func fuzzKeyOf(row []any) fuzzKey {
	k := fuzzKey{b: row[1].(string)}
	if a, ok := row[0].(string); ok {
		k.a = a
	} else {
		k.aNull = true
	}
	if f, ok := row[2].(float64); ok {
		k.f = math.Float64bits(f)
	} else {
		k.fNull = true
	}
	return k
}

// sameValues compares rows of boxed cells as keys compare: floats by
// bits, times as instants.
func sameValues(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		switch xv := x.(type) {
		case float64:
			yv, ok := y.(float64)
			if !ok || math.Float64bits(xv) != math.Float64bits(yv) {
				return false
			}
		case time.Time:
			yv, ok := y.(time.Time)
			if !ok || !xv.Equal(yv) {
				return false
			}
		default:
			if x != y {
				return false
			}
		}
	}
	return true
}

// fuzzOps decodes a byte string into draws; past its end every draw is
// 0.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) next() int {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return int(b)
}

var (
	fuzzStrings = []string{"", "x", "y", "z", "x\x1fy", "y\x1fz", "\x00", "x\x1f"}
	fuzzFloats  = []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}
)

// row draws a row of fuzzKeyDef from a small alphabet, so that keys
// repeat and every cell that once rendered ambiguously turns up.
func (o *fuzzOps) row() []any {
	str := func(nullable bool) any {
		d := o.next()
		if nullable && d%9 == 8 {
			return nil
		}
		return fuzzStrings[d%len(fuzzStrings)]
	}
	var f, v any
	if d := o.next(); d%7 < 6 {
		f = fuzzFloats[d%7]
	}
	if d := o.next(); d%5 < 4 {
		v = int64(d % 4)
	}
	return []any{str(true), str(false), f, str(true), v}
}

// rows draws up to 7 rows, with distinct keys when distinct is set.
func (o *fuzzOps) rows(distinct bool) [][]any {
	var out [][]any
	seen := map[fuzzKey]bool{}
	for n := o.next() % 8; n > 0; n-- {
		r := o.row()
		if distinct && seen[fuzzKeyOf(r)] {
			continue
		}
		seen[fuzzKeyOf(r)] = true
		out = append(out, r)
	}
	return out
}

// runKeyIndexModel applies the operations data decodes to a table of db
// and to a model, a Go map keyed by typed tuples, and checks after
// every step that the table answers Len, GetByKey of every model key
// and of absent keys, and Scan, as the model says. Meanwhile a
// reader probes the table under View, as the REST layer does, so that
// the race detector sees lookups interleaved with the writer's changes.
func runKeyIndexModel(t *testing.T, db *DB, data []byte) {
	tab, err := db.EnsureSchema("s").EnsureTable(fuzzKeyDef())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.View(func() error {
				tab.GetByKey("x", "y", 1.5)
				return nil
			})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	model := map[fuzzKey][]any{}
	o := &fuzzOps{data: data}
	upsertModel := func(rows [][]any) {
		for _, r := range rows {
			model[fuzzKeyOf(r)] = r
		}
	}
	fillErr := errors.New("fill refused")
	for step := 0; len(o.data) > 0 && step < 200; step++ {
		op := o.next() % 11
		var err error
		switch op {
		case 0: // Insert: refused exactly when the key is held
			r := o.row()
			_, held := model[fuzzKeyOf(r)]
			err = db.Do(func() error { return tab.InsertRow(r) })
			if held != (err != nil) {
				t.Fatalf("step %d: InsertRow(%q) = %v with the key held: %v", step, r, err, held)
			}
			if !held {
				upsertModel([][]any{r})
			}
			err = nil
		case 1: // Upsert
			r := o.row()
			err = db.Do(func() error { return tab.UpsertRow(r) })
			upsertModel([][]any{r})
		case 2: // applied UPDATE
			r := o.row()
			err = applyOne(db, Event{Kind: EvUpdate, Schema: "s", Table: "t", Row: r})
			upsertModel([][]any{r})
		case 3: // applied DELETE of a held row, or of an absent key
			r := o.row()
			if held, ok := model[fuzzKeyOf(r)]; ok && o.next()%2 == 0 {
				r = held
			}
			err = applyOne(db, Event{Kind: EvDelete, Schema: "s", Table: "t", Old: r})
			delete(model, fuzzKeyOf(r))
		case 4: // DeleteByKey
			r := o.row()
			_, held := model[fuzzKeyOf(r)]
			var found bool
			err = db.Do(func() error { found = tab.DeleteByKey(r[0], r[1], r[2]); return nil })
			if found != held {
				t.Fatalf("step %d: DeleteByKey(%q) = %v with the key held: %v", step, r[:3], found, held)
			}
			delete(model, fuzzKeyOf(r))
		case 5: // UpsertColumns that repeats a key: refused, nothing changes
			rows := o.rows(true)
			if len(rows) == 0 {
				continue
			}
			rows = append(rows, rows[o.next()%len(rows)])
			if e := db.Do(func() error { return tab.UpsertColumns(columnDataOf(tab.def, rows), nil) }); e == nil || !strings.Contains(e.Error(), "duplicate primary key") {
				t.Fatalf("step %d: a payload repeating a key: %v", step, e)
			}
		case 6: // UpsertColumns whose fill fails on some row: refused
			rows := o.rows(true)
			if len(rows) == 0 {
				continue
			}
			fail := o.next() % len(rows)
			if e := db.Do(func() error {
				return tab.UpsertColumns(columnDataOf(tab.def, rows), func(r, _ int) error {
					if r == fail {
						return fillErr
					}
					return nil
				})
			}); !errors.Is(e, fillErr) {
				t.Fatalf("step %d: fill failing: %v", step, e)
			}
		case 7: // UpsertColumns
			rows := o.rows(true)
			err = db.Do(func() error { return tab.UpsertColumns(columnDataOf(tab.def, rows), nil) })
			upsertModel(rows)
		case 8: // Truncate
			err = db.Do(func() error { tab.Truncate(); return nil })
			clear(model)
		case 9: // ReplaceAllColumns
			rows := o.rows(true)
			err = db.Do(func() error { return tab.ReplaceAllColumns(columnDataOf(tab.def, rows)) })
			clear(model)
			upsertModel(rows)
		case 10: // forced compaction
			err = db.Do(func() error { tab.compact(); tab.markDirty(); return nil })
		}
		if err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		checkKeyIndexModel(t, step, tab, model, o)
	}
}

func checkKeyIndexModel(t *testing.T, step int, tab *Table, model map[fuzzKey][]any, o *fuzzOps) {
	t.Helper()
	if tab.Len() != len(model) || tab.pk.used != len(model) {
		t.Fatalf("step %d: Len %d, index holds %d, model %d", step, tab.Len(), tab.pk.used, len(model))
	}
	for k, want := range model {
		r, ok := tab.GetByKey(want[0], want[1], want[2])
		if !ok || !sameValues(r.Values(), want) {
			t.Fatalf("step %d: GetByKey(%+v) = %q, %v; want %q", step, k, r.Values(), ok, want)
		}
	}
	for n := 0; n < 4; n++ {
		r := o.row()
		if _, held := model[fuzzKeyOf(r)]; !held {
			if got, ok := tab.GetByKey(r[0], r[1], r[2]); ok {
				t.Fatalf("step %d: GetByKey of absent %q found %q", step, r[:3], got.Values())
			}
		}
	}
	// A candidate is confirmed cell by cell (Table.holds) only when its
	// 32 hash bits match, which distinct keys seldom do; so compare
	// every pair of a few stored rows directly.
	var live []int
	for _, s := range tab.pk.slots {
		if s != 0 && len(live) < 12 {
			live = append(live, slotPos(s))
		}
	}
	ix := tab.pk
	for _, a := range live {
		for _, b := range live {
			var buf [keyCellsOnStack]keyCell
			cells := tab.keyCells(buf[:0], tab.cols, b, ix.cols, codeMap{})
			va, vb := tab.rowAt(a).Values(), tab.rowAt(b).Values()
			same := true
			for _, ci := range ix.cols {
				same = same && sameValues(va[ci:ci+1], vb[ci:ci+1])
			}
			if tab.holds(a, ix.cols, cells) != same {
				t.Fatalf("step %d: row %q holds the key %v of row %q: %v", step, va, ix.cols, vb, !same)
			}
		}
	}
	tab.Scan(func(r Row) bool {
		if want := model[fuzzKeyOf(r.Values())]; !sameValues(r.Values(), want) {
			t.Fatalf("step %d: Scan holds %q, model %q", step, r.Values(), want)
		}
		return true
	})
}

// FuzzKeyIndex checks the key indexes against a model through every
// way a write reaches them — insert, upsert, applied UPDATE and
// DELETE, DeleteByKey, refused and accepted UpsertColumns, truncate,
// bulk load and compaction.
func FuzzKeyIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(40))
	for n := 0; n < 12; n++ {
		seed := make([]byte, 150+rng.Intn(250))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{7, 7, 1, 2, 3, 4, 5, 6, 7, 10, 3, 9, 4, 1, 1, 1, 1, 8, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runKeyIndexModel(t, OpenOptions("mem", Options{}), data)
	})
}
