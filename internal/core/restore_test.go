package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/realm/alloc"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/replicate"
	"xdmodfed/internal/warehouse"
	"xdmodfed/internal/workload"
)

// tableContents renders every row of every table that is not derived,
// by schema.table, each table's rows sorted.
func tableContents(db *warehouse.DB) map[string][]string {
	out := map[string][]string{}
	for _, sn := range db.Schemas() {
		s := db.Schema(sn)
		for _, tn := range s.Tables() {
			tab := s.Table(tn)
			if tab.Def().Derived {
				continue
			}
			var rows []string
			db.View(func() error {
				tab.Scan(func(r warehouse.Row) bool {
					rows = append(rows, fmt.Sprintf("%v", r.Values()))
					return true
				})
				return nil
			})
			slices.Sort(rows)
			out[sn+"."+tn] = rows
		}
	}
	return out
}

// fedContents is tableContents of the fed_ schemas only: the member
// data a hub holds.
func fedContents(db *warehouse.DB) map[string][]string {
	out := tableContents(db)
	maps.DeleteFunc(out, func(key string, _ []string) bool { return !strings.HasPrefix(key, replicate.HubSchemaPrefix) })
	return out
}

// TestOwnSnapshotRestoresEveryTable: xdmod-ingestor and
// xdmod-satellite save their warehouse to their -db file and reload it
// through RestoreFromHubBackup on the next start. The reload must bring
// back every table the file holds — the Cloud realm's raw events, the
// Allocations realm's awards, not only the federated fact tables — so that
// ingesting after the restart ends exactly where one uninterrupted run
// ends. Before, only the federated tables came back: a VM started
// before the restart and terminated after it found no start event, and
// its session was deleted.
func TestOwnSnapshotRestoresEveryTable(t *testing.T) {
	events := workload.CCRCloud2017(12, 5)
	slices.SortStableFunc(events, func(a, b cloud.Event) int { return a.Time.Compare(b.Time) })
	// Restart halfway through the longest VM's life.
	var cut time.Time
	var longest time.Duration
	first := map[string]time.Time{}
	for _, e := range events {
		if _, ok := first[e.VMID]; !ok {
			first[e.VMID] = e.Time
		}
		if life := e.Time.Sub(first[e.VMID]); e.Type == cloud.EvTerminate && life > longest {
			longest, cut = life, first[e.VMID].Add(life/2)
		}
	}
	split, _ := slices.BinarySearchFunc(events, cut, func(e cloud.Event, t time.Time) int { return e.Time.Compare(t) })
	before, after := events[:split], events[split:]

	cfg := satCfg("site", []string{"r"}, "")
	firstHalf := func(s *Satellite) {
		t.Helper()
		ingestJobs(t, s, "r", 20, time.Hour, 1)
		if _, err := s.Pipeline.IngestCloudEvents(before, cut); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := alloc.AddAllocation(s.DB, alloc.Allocation{Project: fmt.Sprintf("p%d", i), Award: float64(1000 * (i + 1)),
				Start: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	secondHalf := func(s *Satellite) {
		t.Helper()
		ingestJobs(t, s, "r", 20, time.Hour, 21)
		if _, err := s.Pipeline.IngestCloudEvents(after, workload.CloudHorizon2017); err != nil {
			t.Fatal(err)
		}
	}

	control, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstHalf(control)
	secondHalf(control)

	saved, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstHalf(saved)
	path := filepath.Join(t.TempDir(), "site.snap")
	if err := saved.DB.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	straddling := 0 // VMs started before the save and terminated after it
	started := map[string]bool{}
	for _, e := range before {
		started[e.VMID] = true
	}
	for _, e := range after {
		if started[e.VMID] && e.Type == cloud.EvTerminate {
			straddling++
		}
	}
	if straddling == 0 {
		t.Fatal("no VM's session spans the restart: the test exercises nothing")
	}

	restarted, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := restarted.RestoreFromHubBackup(f); err != nil {
		t.Fatal(err)
	}
	secondHalf(restarted)

	want, got := tableContents(control.DB), tableContents(restarted.DB)
	for _, table := range []string{cloud.SchemaName + "." + cloud.EventTable, alloc.SchemaName + "." + alloc.AwardTable} {
		if len(want[table]) == 0 {
			t.Fatalf("control run left %s empty: the test exercises nothing", table)
		}
	}
	for table, rows := range want {
		if !slices.Equal(got[table], rows) {
			t.Errorf("%s after a restart holds %d rows, one uninterrupted run %d", table, len(got[table]), len(rows))
		}
	}
	for table := range got {
		if _, ok := want[table]; !ok {
			t.Errorf("%s exists only after the restart", table)
		}
	}
	// The charts compare after a rebuild on both sides: the Cloud total
	// an incremental refresh reaches can differ from a rebuild's in the
	// last bit, restart or not (see ROADMAP).
	for _, s := range []*Satellite{control, restarted} {
		if err := s.AggregateAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct{ realm, metric string }{{"Cloud", cloud.MetricCoreHours}, {"Jobs", jobs.MetricNumJobs}} {
		req := aggregate.Request{MetricID: q.metric, Period: aggregate.Month}
		w, err := control.Query(q.realm, req)
		if err != nil {
			t.Fatal(err)
		}
		g, err := restarted.Query(q.realm, req)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s %s after a restart = %v, one uninterrupted run %v", q.realm, q.metric, g, w)
		}
	}
}

// TestRestartWithWALAndSnapshotKeepsWrites: a satellite started with
// both a WAL and a -db snapshot restores the snapshot on its first
// start, ingests, and dies before saving the snapshot again. The
// restart must come back with every job — the WAL is the record, the
// stale snapshot is not restored over it — and must append nothing to
// the WAL, so no rollback reaches the binlog or a hub.
func TestRestartWithWALAndSnapshotKeepsWrites(t *testing.T) {
	dir := t.TempDir()
	dbPath, walPath := filepath.Join(dir, "site.snap"), filepath.Join(dir, "site.wal")
	cfg := satCfg("site", []string{"clusterA"}, "")
	seed, err := NewSatellite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestJobs(t, seed, "clusterA", 10, time.Hour, 1)
	if err := seed.DB.SaveFile(dbPath); err != nil {
		t.Fatal(err)
	}

	start := func() (*Satellite, *warehouse.LogWriter) {
		t.Helper()
		sat, err := NewSatellite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wal, err := sat.Recover(walPath, dbPath)
		if err != nil {
			t.Fatal(err)
		}
		return sat, wal
	}
	jobCount := func(sat *Satellite) int { return sat.DB.Count(jobs.SchemaName, jobs.FactTable) }
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	sat, wal := start() // first start: the WAL is empty, the snapshot seeds it
	if n := jobCount(sat); n != 10 {
		t.Fatalf("first start holds %d jobs, want the snapshot's 10", n)
	}
	ingestJobs(t, sat, "clusterA", 5, time.Hour, 100)
	if err := wal.Close(); err != nil { // dies without saving the snapshot
		t.Fatal(err)
	}
	size := walSize()

	for restart := 1; restart <= 2; restart++ {
		sat, wal = start()
		if n := jobCount(sat); n != 15 {
			t.Fatalf("restart %d holds %d jobs, want 15", restart, n)
		}
		series, err := sat.Query("Jobs", aggregate.Request{MetricID: jobs.MetricNumJobs, Period: aggregate.Year})
		if err != nil {
			t.Fatal(err)
		}
		if total := series[0].Aggregate; total != 15 {
			t.Fatalf("restart %d: the Jobs chart counts %v jobs, want 15", restart, total)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		if got := walSize(); got != size {
			t.Fatalf("restart %d grew the WAL from %d to %d bytes", restart, size, got)
		}
	}
}

// TestPreSeqCloudEventsAreRefused: a snapshot or WAL written before
// the Cloud event table was keyed by (vm_id, seq) holds that table in
// its old layout — no seq column, no primary key — or rows of it. A
// satellite starting from one refuses it with an error naming the
// table or its row width, neither panicking nor starting with the old
// events unread; such a satellite re-ingests its data. The WALs are a
// WAL a snapshot restore seeded, which opens with the table's DDL, and
// a WAL a fresh satellite wrote, which holds only rows.
func TestPreSeqCloudEventsAreRefused(t *testing.T) {
	oldEventDef := warehouse.TableDef{Name: cloud.EventTable, Columns: []warehouse.Column{
		{Name: "vm_id", Type: warehouse.TypeString},
		{Name: "resource", Type: warehouse.TypeString},
		{Name: "username", Type: warehouse.TypeString},
		{Name: "project", Type: warehouse.TypeString},
		{Name: "instance_type", Type: warehouse.TypeString},
		{Name: "event_type", Type: warehouse.TypeString},
		{Name: "event_time", Type: warehouse.TypeTime},
		{Name: "cores", Type: warehouse.TypeInt},
		{Name: "memory_gb", Type: warehouse.TypeFloat},
		{Name: "disk_gb", Type: warehouse.TypeFloat},
	}}
	dir := t.TempDir()
	// write makes a DB holding the old event table and one event, with
	// a WAL at walPath opened before the table's DDL (ddlLogged) or
	// after it, and saves the DB to dbPath.
	write := func(walPath, dbPath string, ddlLogged bool) {
		t.Helper()
		old := warehouse.Open("site")
		var w *warehouse.LogWriter
		open := func() {
			var err error
			if w, err = warehouse.OpenLogWriterOpts(old, walPath, old.Binlog().Last(), warehouse.WALOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if ddlLogged {
			open()
		}
		tab, err := old.EnsureSchema(cloud.SchemaName).EnsureTable(oldEventDef)
		if err != nil {
			t.Fatal(err)
		}
		if !ddlLogged {
			open()
		}
		at := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
		if err := old.Do(func() error {
			return tab.InsertRow([]any{"vm-1", "lakeeffect", "u", "p", "m1.small", string(cloud.EvStart), at, int64(2), 4.0, 20.0})
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := old.SaveFile(dbPath); err != nil {
			t.Fatal(err)
		}
	}
	seeded, fresh, dbPath := filepath.Join(dir, "seeded.wal"), filepath.Join(dir, "fresh.wal"), filepath.Join(dir, "old.snap")
	write(seeded, dbPath, true)
	write(fresh, filepath.Join(dir, "unused.snap"), false)
	layout := "modw_cloud.event exists with another layout"
	for _, c := range []struct{ what, wal, db, want string }{
		{"snapshot", "", dbPath, layout},
		{"seeded WAL", seeded, "", layout},
		{"fresh WAL", fresh, "", "modw_cloud.event expects 11 values, got 10"},
	} {
		sat, err := NewSatellite(satCfg("site", []string{"lakeeffect"}, ""))
		if err != nil {
			t.Fatal(err)
		}
		wal, err := sat.Recover(c.wal, c.db)
		if wal != nil {
			wal.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("start from a pre-seq %s: %v, want an error saying %q", c.what, err, c.want)
		}
	}
}
