package warehouse

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"xdmodfed/internal/warehouse/store"
)

// DB is an embedded warehouse instance: a set of named schemas, each a
// set of typed columnar tables, with an optional binlog recording every
// mutation. A DB plays the role MySQL plays for a real XDMoD instance.
//
// All exported methods are safe for concurrent use. One RWMutex orders
// the DB: write transactions (Do and the mutation wrappers) hold it
// exclusively and publish an immutable snapshot of every table they
// touched when they commit; View, Count and snapshot collection
// hold it shared. DataFor resolves the published snapshots through an
// atomically swapped catalog, so scan-heavy readers (aggregation, chart
// queries, replication extraction, snapshot dumps) never take the lock
// at all.
type DB struct {
	name    string
	mu      sync.RWMutex
	schemas map[string]*Schema
	binlog  *Binlog
	logging bool

	// storage is the segment backend every table seals cold chunks
	// into; hotTailRows is the tail size that triggers sealing at
	// publish (0 = seal only on compaction and bulk loads). Both are
	// fixed at Open.
	storage     store.Backend
	hotTailRows int

	// catalog is the lock-free name resolution map, rebuilt (rarely) on
	// DDL. Entries and their table maps are never mutated after
	// publication.
	catalog atomic.Pointer[map[string]catalogSchema]

	// dirty lists the tables the in-flight write transaction mutated
	// (guarded by mu); commit publishes each and clears the list.
	dirty []*Table

	// epoch is the root of the warehouse generation counter for the
	// query-result cache (internal/qcache). Commits bump the touched
	// schemas' epochs; the root absorbs schema drops. The DB-wide generation reported by Epoch is the
	// root plus every schema's epoch, and EpochOf scopes the sum to the
	// schema a query actually read.
	epoch atomic.Uint64
}

// catalogSchema is one schema's entry in the lock-free catalog.
type catalogSchema struct {
	epoch  *atomic.Uint64
	tables map[string]*Table
}

// Schema is a named group of tables (the paper replicates each
// satellite instance's schema into a uniquely named schema on the hub).
type Schema struct {
	name   string
	db     *DB
	tables map[string]*Table

	// epoch counts the write transactions that published any of the
	// schema's tables, so the query cache can scope invalidation to the
	// schema a chart reads. txnDirty marks the schema for the bump while
	// a commit runs (guarded by db.mu).
	epoch    atomic.Uint64
	txnDirty bool
}

// Options configures a DB's tiered storage.
type Options struct {
	// Storage is the segment backend cold chunks seal into; nil uses
	// the in-memory backend (the classic all-RAM behavior).
	Storage store.Backend
	// HotTailRows seals a table's hot tail as a segment once it
	// reaches this many rows at commit. 0 never seals the tail —
	// segments then form only through compaction and bulk loads, which
	// with the memory backend is byte-for-byte the pre-tiering layout.
	HotTailRows int
	// NoBinlog opens a DB that does not record mutations: scratch stores
	// nobody replicates from, and a hub's warehouse, whose log no sender,
	// WAL or trim would ever read. (On a DB that does log, a derived
	// table still does not: see TableDef.Derived.)
	NoBinlog bool
}

// Open creates an empty DB with binary logging enabled and in-memory
// segment storage.
func Open(name string) *DB { return OpenOptions(name, Options{}) }

// OpenOptions creates an empty DB with the given storage configuration
// and, unless opts.NoBinlog, binary logging enabled.
func OpenOptions(name string, opts Options) *DB {
	if opts.Storage == nil {
		opts.Storage = store.NewMem()
	}
	if opts.HotTailRows < 0 {
		opts.HotTailRows = 0
	}
	db := &DB{
		name:        name,
		schemas:     make(map[string]*Schema),
		binlog:      NewBinlog(),
		logging:     !opts.NoBinlog,
		storage:     opts.Storage,
		hotTailRows: opts.HotTailRows,
	}
	db.catalog.Store(&map[string]catalogSchema{})
	return db
}

// Close releases the DB's segment-store backend (unmapping any
// disk-backed segments). The DB must not be used afterwards.
func (db *DB) Close() error { return db.storage.Close() }

// OpenWithoutBinlog creates a DB that does not record mutations; used
// for scratch stores (e.g. staging areas) where replication is not
// wanted.
func OpenWithoutBinlog(name string) *DB { return OpenOptions(name, Options{NoBinlog: true}) }

// Name returns the DB's instance name.
func (db *DB) Name() string { return db.name }

// Binlog returns the DB's binary log.
func (db *DB) Binlog() *Binlog { return db.binlog }

// Epoch returns the current warehouse generation: the root epoch plus
// every schema's epoch. Commits bump the epochs of the schemas they
// touched, so any committed write moves the value; it is monotone
// across sequential observations.
func (db *DB) Epoch() uint64 {
	e := db.epoch.Load()
	for _, s := range *db.catalog.Load() {
		e += s.epoch.Load()
	}
	return e
}

// EpochOf returns the warehouse generation as observed through one
// schema: the root epoch (schema drops) plus the schema's epoch. A cached result that only read the schema is valid
// iff the value is unchanged — commits against other schemas leave it
// alone, which is what scopes query-cache invalidation to the realm a
// chart actually reads.
func (db *DB) EpochOf(schema string) uint64 {
	e := db.epoch.Load()
	if s, ok := (*db.catalog.Load())[schema]; ok {
		e += s.epoch.Load()
	}
	return e
}

func (db *DB) logEvent(ev Event) {
	if db.logging {
		db.binlog.Append(ev)
	}
}

// commitLocked publishes a fresh immutable snapshot for every table the
// finished transaction touched, then bumps each touched schema's epoch
// once. Must run while holding mu exclusively; after it returns,
// lock-free readers observe the transaction's effects.
func (db *DB) commitLocked() {
	for _, t := range db.dirty {
		t.publish()
		t.txnDirty = false
		t.sch.txnDirty = true
	}
	for _, t := range db.dirty {
		if t.sch.txnDirty {
			t.sch.txnDirty = false
			t.sch.epoch.Add(1)
		}
	}
	clear(db.dirty)
	db.dirty = db.dirty[:0]
}

// rebuildCatalogLocked republishes the lock-free catalog after DDL.
func (db *DB) rebuildCatalogLocked() {
	cat := make(map[string]catalogSchema, len(db.schemas))
	for name, s := range db.schemas {
		cat[name] = catalogSchema{epoch: &s.epoch, tables: maps.Clone(s.tables)}
	}
	db.catalog.Store(&cat)
}

// createSchemaLocked installs a fresh schema, replacing any existing
// schema of the same name (whose epoch the new one carries on). Caller
// must hold mu.
func (db *DB) createSchemaLocked(name string) *Schema {
	s := &Schema{name: name, db: db, tables: make(map[string]*Table)}
	if old := db.schemas[name]; old != nil {
		s.epoch.Store(old.epoch.Load())
	}
	db.schemas[name] = s
	db.rebuildCatalogLocked()
	db.logEvent(Event{Kind: EvCreateSchema, Schema: name})
	return s
}

// EnsureSchema returns the named schema, creating it if needed.
func (db *DB) EnsureSchema(name string) *Schema {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.schemas[name]; ok {
		return s
	}
	return db.createSchemaLocked(name)
}

// dropSchemaLocked removes a schema (if present), folding its epoch plus
// one for the drop itself into the root epoch so Epoch and EpochOf never
// move backwards, and logs the drop. Caller must hold mu.
func (db *DB) dropSchemaLocked(name string) {
	if s, ok := db.schemas[name]; ok {
		db.epoch.Add(s.epoch.Load() + 1)
		delete(db.schemas, name)
	}
	db.rebuildCatalogLocked()
	db.logEvent(Event{Kind: EvDropSchema, Schema: name})
}

// Schema returns the named schema, or nil when absent.
func (db *DB) Schema(name string) *Schema {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.schemas[name]
}

// Schemas returns the sorted names of all schemas.
func (db *DB) Schemas() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedKeys(db.schemas)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// createTableLocked adds a table built from def to the schema,
// republishes the catalog and, for a logged table, logs the DDL.
// Caller must hold mu.
func (s *Schema) createTableLocked(def TableDef) (*Table, error) {
	t, err := newTable(s, def)
	if err != nil {
		return nil, err
	}
	s.tables[def.Name] = t
	s.db.rebuildCatalogLocked()
	t.logEvent(Event{Kind: EvCreateTable, Def: &t.def}) // t.def is never modified
	return t, nil
}

// EnsureTable returns the named table, creating it from def if absent.
// A table that exists must have def's layout — its columns, primary key
// and Derived flag — or EnsureTable refuses it rather than hand out a
// table whose rows have another shape than the caller writes.
func (s *Schema) EnsureTable(def TableDef) (*Table, error) {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if t, ok := s.tables[def.Name]; ok {
		if diff := layoutDiff(t.def, def); diff != "" {
			return nil, fmt.Errorf("warehouse: table %s.%s exists with another layout: %s", s.name, def.Name, diff)
		}
		return t, nil
	}
	return s.createTableLocked(def)
}

// layoutDiff describes the first difference between the layout of an
// existing table and a wanted one — columns in order, then primary key,
// then Derived — or returns "" when they agree.
func layoutDiff(have, want TableDef) string {
	for i := range max(len(have.Columns), len(want.Columns)) {
		h, w := "none", "none"
		if i < len(have.Columns) {
			h = fmt.Sprintf("%+v", have.Columns[i])
		}
		if i < len(want.Columns) {
			w = fmt.Sprintf("%+v", want.Columns[i])
		}
		if h != w {
			return fmt.Sprintf("column %d is %s, want %s", i+1, h, w)
		}
	}
	if !slices.Equal(have.PrimaryKey, want.PrimaryKey) {
		return fmt.Sprintf("primary key is %v, want %v", have.PrimaryKey, want.PrimaryKey)
	}
	if have.Derived != want.Derived {
		return fmt.Sprintf("derived is %t, want %t", have.Derived, want.Derived)
	}
	return ""
}

// Table returns the named table, or nil when absent.
func (s *Schema) Table(name string) *Table {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.tables[name]
}

// Tables returns the sorted names of the schema's tables.
func (s *Schema) Tables() []string {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return sortedKeys(s.tables)
}

// Do runs fn as one write transaction: fn runs while holding the DB
// write lock (Table mutation methods must be called inside Do; the
// convenience wrappers below do so), and every table fn touched
// publishes a fresh snapshot when Do returns.
func (db *DB) Do(fn func() error) error {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	return fn()
}

// View runs fn while holding the read lock, so fn observes a consistent
// cut across all schemas: no write transaction commits while it runs.
func (db *DB) View(fn func() error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return fn()
}

// Insert inserts one map-form row into schema.table.
func (db *DB) Insert(schema, table string, row map[string]any) error {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	t, err := db.lookupLocked(schema, table)
	if err != nil {
		return err
	}
	return t.Insert(row)
}

// InsertRow inserts one positional row into schema.table.
func (db *DB) InsertRow(schema, table string, row []any) error {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	t, err := db.lookupLocked(schema, table)
	if err != nil {
		return err
	}
	return t.InsertRow(row)
}

// Upsert upserts one map-form row into schema.table.
func (db *DB) Upsert(schema, table string, row map[string]any) error {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	t, err := db.lookupLocked(schema, table)
	if err != nil {
		return err
	}
	return t.Upsert(row)
}

// LoadColumns atomically replaces schema.table's contents with the
// given columnar payload in one write transaction (see
// Table.ReplaceAllColumns).
func (db *DB) LoadColumns(schema, table string, cd *ColumnData) error {
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	t, err := db.lookupLocked(schema, table)
	if err != nil {
		return err
	}
	return t.ReplaceAllColumns(cd)
}

// Count returns the number of live rows in schema.table.
func (db *DB) Count(schema, table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, err := db.lookupLocked(schema, table)
	if err != nil {
		return 0
	}
	return t.Len()
}

func (db *DB) lookupLocked(schema, table string) (*Table, error) {
	s, ok := db.schemas[schema]
	if !ok {
		return nil, fmt.Errorf("warehouse: schema %q does not exist", schema)
	}
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("warehouse: table %s.%s does not exist", schema, table)
	}
	return t, nil
}

// DataFor returns the last committed snapshot of schema.table without
// taking any lock: the table is resolved through the atomically
// published catalog and the snapshot through the table's version
// pointer. The returned TableData is immutable and stays valid (and
// consistent) for as long as the caller holds it, regardless of
// concurrent writes.
func (db *DB) DataFor(schema, table string) (*TableData, error) {
	s, ok := (*db.catalog.Load())[schema]
	if !ok {
		return nil, fmt.Errorf("warehouse: schema %q does not exist", schema)
	}
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("warehouse: table %s.%s does not exist", schema, table)
	}
	return t.Data(), nil
}

// ApplyAll replays a batch of binlog events as one write transaction:
// one lock acquisition and one snapshot publish per touched table,
// however many events the batch carries. It stops at the first failing
// event; everything applied before it stays applied (and published),
// matching the per-event Apply semantics replication recovery depends
// on. It returns how many events of the prefix were applied, so callers
// that post-process applied events (identity observation, aggregation
// classification) can cover exactly the applied prefix on error.
func (db *DB) ApplyAll(evs []Event) (int, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	mTxns.Inc()
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.commitLocked()
	for i, ev := range evs {
		if err := db.applyLocked(ev); err != nil {
			return i, err
		}
	}
	return len(evs), nil
}

func (db *DB) applyLocked(ev Event) error {
	switch ev.Kind {
	case EvCreateSchema:
		if _, ok := db.schemas[ev.Schema]; !ok {
			db.createSchemaLocked(ev.Schema)
		}
		return nil
	case EvDropSchema:
		db.dropSchemaLocked(ev.Schema)
		return nil
	case EvCreateTable:
		s, ok := db.schemas[ev.Schema]
		if !ok {
			s = db.createSchemaLocked(ev.Schema)
		}
		if _, ok := s.tables[ev.Table]; ok {
			return nil // idempotent: reconnects resend DDL
		}
		if ev.Def == nil {
			return fmt.Errorf("warehouse: CREATE_TABLE event for %s.%s missing definition", ev.Schema, ev.Table)
		}
		_, err := s.createTableLocked(*ev.Def)
		return err
	}
	t, err := db.lookupLocked(ev.Schema, ev.Table)
	if err != nil {
		return err
	}
	switch ev.Kind {
	case EvInsert:
		vals, err := t.normalizeSlice(ev.Row)
		if err != nil {
			return err
		}
		return t.insertVals(vals)
	case EvUpdate:
		vals, err := t.normalizeSlice(ev.Row)
		if err != nil {
			return err
		}
		if t.pk != nil {
			return t.upsertVals(vals)
		}
		return t.insertVals(vals)
	case EvDelete:
		vals, err := t.normalizeSlice(ev.Old)
		if err != nil {
			return err
		}
		if t.pk != nil {
			if pos, exists := t.pk[string(t.pkBytes(vals))]; exists {
				t.deleteAt(pos)
			}
			return nil
		}
		// No primary key: delete by full-row match (first match wins).
		target := encodeKey(vals)
		var buf []byte
		allCols := make([]int, len(t.def.Columns))
		for i := range allCols {
			allCols[i] = i
		}
		found := -1
		t.forEachChunk(func(cols []ColumnVector, base, rows int) bool {
			for lp := 0; lp < rows; lp++ {
				if t.dead[base+lp] {
					continue
				}
				buf = appendKeyAt(buf[:0], cols, allCols, lp)
				if string(buf) == target {
					found = base + lp
					return false
				}
			}
			return true
		})
		if found >= 0 {
			t.deleteAt(found)
		}
		return nil
	case EvTruncate:
		t.Truncate()
		return nil
	case EvLoad:
		if ev.Cols == nil {
			return fmt.Errorf("warehouse: LOAD event for %s.%s missing columnar payload", ev.Schema, ev.Table)
		}
		return t.ReplaceAllColumns(ev.Cols)
	default:
		return fmt.Errorf("warehouse: cannot apply event kind %v", ev.Kind)
	}
}

// TableIn returns the table in the named schema, or an error.
func (db *DB) TableIn(schema, table string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lookupLocked(schema, table)
}
