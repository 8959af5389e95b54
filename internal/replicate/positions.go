package replicate

import (
	"xdmodfed/internal/warehouse"
)

// Position tracking: the hub records, per satellite instance, the last
// binlog LSN it has durably applied — the analog of Tungsten's
// trep_commit_seqno table. On reconnect the satellite resumes from the
// stored position, making tight replication restartable.

// PositionSchema and PositionTable locate the commit-position table on
// the hub warehouse.
const (
	PositionSchema = "federation"
	PositionTable  = "commit_seqno"
)

func positionDef() warehouse.TableDef {
	return warehouse.TableDef{
		Name: PositionTable,
		Columns: []warehouse.Column{
			{Name: "instance", Type: warehouse.TypeString},
			{Name: "lsn", Type: warehouse.TypeInt},
		},
		PrimaryKey: []string{"instance"},
	}
}

// PositionStore reads and writes per-instance commit positions in a
// hub warehouse.
type PositionStore struct {
	db *warehouse.DB
}

// NewPositionStore creates (if needed) the commit-position table.
func NewPositionStore(db *warehouse.DB) (*PositionStore, error) {
	s := db.EnsureSchema(PositionSchema)
	if _, err := s.EnsureTable(positionDef()); err != nil {
		return nil, err
	}
	return &PositionStore{db: db}, nil
}

// Get returns the stored position for an instance (0 when none).
func (p *PositionStore) Get(instance string) uint64 {
	tab, err := p.db.TableIn(PositionSchema, PositionTable)
	if err != nil {
		return 0
	}
	var pos uint64
	p.db.View(func() error {
		if r, ok := tab.GetByKey(instance); ok {
			pos = uint64(r.Int("lsn"))
		}
		return nil
	})
	return pos
}

// Set records the position for an instance.
func (p *PositionStore) Set(instance string, lsn uint64) error {
	return p.db.Upsert(PositionSchema, PositionTable, map[string]any{
		"instance": instance,
		"lsn":      int64(lsn),
	})
}
