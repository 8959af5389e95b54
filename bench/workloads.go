package bench

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/workload"
)

// Sizes fixes how much work one round of each workload does. Work is
// fixed by count, scaled from the round's seconds by the per-second
// rates below, so that counts repeat exactly from run to run; the time
// budget only caps a round on a box slower than the reference one.
type Sizes struct {
	BackfillPreload    int // facts per resource before the timed section
	BackfillBatches    int // closed-loop batches
	BackfillBatchLines int // Slurm lines per batch

	TricklePreload    int           // facts per member before the timed section
	TrickleBatches    int           // batches, alternating members
	TrickleBatchLines int           // Slurm lines per batch
	TrickleInterval   time.Duration // one batch is due every interval

	CloudStoragePreload  int           // batches of each kind ingested before the timed section
	CloudStorageBatches  int           // batches, alternating cloud and storage
	CloudStorageInterval time.Duration //
	CloudBatchEvents     int           // VM lifecycle events per cloud batch
	StorageUsers         int           // users per storage collection day (one day per batch)

	ChartJobsScale    int // workload.XSEDE2017 scale of the preloaded hub
	ChartCloudVMs     int
	ChartStorageUsers int
	ChartStorageDays  int
	ChartPool         int // distinct chart requests per round
	ChartHotPasses    int // shuffled repeats of the pool after the cold pass
}

const (
	backfillBatchLines     = 5000
	backfillLinesPerSecond = 6000 // a little under what the reference box sustains
	trickleBusyShare       = 0.9  // share of --seconds an open-loop schedule spans
	chartRequestsPerSecond = 800  // distinct requests per second of run; each is issued 1 + ChartHotPasses times
)

// SizesFor scales the workloads to a timed section of about seconds.
func SizesFor(seconds float64) Sizes {
	sz := Sizes{
		BackfillPreload:    1500,
		BackfillBatches:    int(seconds * backfillLinesPerSecond / backfillBatchLines),
		BackfillBatchLines: backfillBatchLines,

		TricklePreload:    4000,
		TrickleBatchLines: 100,
		TrickleInterval:   40 * time.Millisecond,

		CloudStoragePreload:  30,
		CloudStorageInterval: 40 * time.Millisecond,
		CloudBatchEvents:     10,
		StorageUsers:         5,

		ChartJobsScale:    450,
		ChartCloudVMs:     400,
		ChartStorageUsers: 20,
		ChartStorageDays:  12,
		ChartPool:         int(seconds * chartRequestsPerSecond),
		ChartHotPasses:    5,
	}
	span := time.Duration(seconds * trickleBusyShare * float64(time.Second))
	sz.TrickleBatches = int(span / sz.TrickleInterval)
	sz.CloudStorageBatches = int(span / sz.CloudStorageInterval)
	return sz
}

// Workload is one named set of inputs and the reason it exists.
type Workload struct {
	Name string
	Why  string

	mode  string // members' replication mode
	setup func(dir string, seed int64, sz Sizes) (*env, error)
	live  func(e *env, budget time.Duration) (*liveStats, error)
	step  func(e *env, budget time.Duration, tr *tracer) error
}

// Workloads are the benchmark's five workloads. README.md gives the
// long form of each Why and names the optimisation each one bypasses.
var Workloads = []Workload{
	{Name: "backfill-facts", mode: "facts", setup: setupBackfill, live: liveBackfill, step: stepWrites,
		Why: "closed-loop bulk ingest replicated as raw facts: every write layer does most of its work, the read layers none"},
	{Name: "backfill-pushdown", mode: "pushdown", setup: setupBackfill, live: liveBackfill, step: stepWrites,
		Why: "same lines with aggregation pushdown: satellite work identical, wire/apply/hub fold nearly idle, DeltaFolder loaded"},
	{Name: "trickle-jobs", mode: "facts", setup: setupTrickleJobs, live: liveTrickle, step: stepWrites,
		Why: "open-loop small additive batches from two members: per-batch overheads on the incremental-fold freshness path"},
	{Name: "trickle-cloud-storage", mode: "facts", setup: setupTrickleCloudStorage, live: liveTrickle, step: stepWrites,
		Why: "open-loop non-additive batches: session-table rebuilds and dirty-shard rebuilds whose cost grows with table size"},
	{Name: "chart-read", mode: "facts", setup: setupChartRead, live: liveChartRead, step: stepCharts,
		Why: "closed-loop chart requests on a static hub, each pool once cold then five times hot: the read path with writers idle"},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// env is one set-up of a workload: generated input files, and a live
// federation preloaded and ready for the timed section.
type env struct {
	w     Workload
	seed  int64
	dir   string
	specs []memberSpec
	fed   *federation

	preloadFiles []inputFile // ingested during set-up
	inputFiles   []inputFile // dealt in rotation during the timed section
	preloaded    int         // facts the preload put into the federation
	batches      int         // batches the timed section deals
	interval     time.Duration

	pool      []chartRequest // chart-read only
	hotPasses int
}

func (e *env) Close() {
	if e.fed != nil {
		e.fed.Close()
	}
}

// openInput starts the timed section's batches from the beginning.
func (e *env) openInput() (*rotation, error) {
	feeds, err := openFeeds(e.inputFiles)
	return &rotation{feeds: feeds}, err
}

// start brings up the federation and preloads it.
func (e *env) start() error {
	var err error
	if e.fed, err = startFederation(e.dir, e.w.mode, e.specs); err != nil {
		return err
	}
	feeds, err := openFeeds(e.preloadFiles)
	if err != nil {
		return err
	}
	defer closeFeeds(feeds)
	e.preloaded, err = e.fed.preload(feeds)
	return err
}

func hpc(m workload.ResourceModel) config.ResourceConfig {
	return config.ResourceConfig{Name: m.Name, Type: "hpc", SUFactor: m.SUFactor}
}

var (
	cloudResource    = config.ResourceConfig{Name: "lakeeffect", Type: "cloud"}
	storageResources = []config.ResourceConfig{
		{Name: "isilon-home", Type: "storage"}, {Name: "isilon-projects", Type: "storage"}, {Name: "gpfs-scratch", Type: "storage"},
	}
)

// jobsFor generates at least lines job records for one resource model.
func jobsFor(m workload.ResourceModel, lines int, seed int64) []shredder.JobRecord {
	weight := 0.0
	for _, w := range m.MonthlyWeight {
		weight += w
	}
	return workload.GenerateJobs(m, int(float64(lines)/weight)+2, seed)
}

// splitJobLog writes the first pre records to <stem>-preload.log and
// the rest to <stem>.log, and returns the two as input files.
func splitJobLog(stem string, recs []shredder.JobRecord, pre int, in inputFile) (preload, rest inputFile, err error) {
	preload, rest = in, in
	preload.path, preload.batchSize = stem+"-preload.log", backfillBatchLines
	rest.path = stem + ".log"
	if err = writeJobLog(preload.path, recs[:pre]); err == nil {
		err = writeJobLog(rest.path, recs[pre:])
	}
	return preload, rest, err
}

// setupBackfill: one satellite with the three XSEDE resources and a
// little history of each; one log file per resource, dealt in rotation
// in BackfillBatchLines batches.
func setupBackfill(dir string, seed int64, sz Sizes) (*env, error) {
	models := workload.XSEDE2017Models()
	e := &env{dir: dir, batches: sz.BackfillBatches}
	spec := memberSpec{name: "siteA", realms: []string{"Jobs"}}
	// Every resource gets a third of the lines, so the rotation deals
	// from all three files to the end.
	perFile := sz.BackfillBatches*sz.BackfillBatchLines/len(models) + sz.BackfillBatchLines
	for i, m := range models {
		spec.resources = append(spec.resources, hpc(m))
		recs := jobsFor(m, sz.BackfillPreload+perFile, seed+int64(i)*1000)
		pre, rest, err := splitJobLog(filepath.Join(dir, "siteA-"+m.Name), recs, sz.BackfillPreload,
			inputFile{kind: "jobs", resource: m.Name, batchSize: sz.BackfillBatchLines})
		if err != nil {
			return nil, err
		}
		e.preloadFiles = append(e.preloadFiles, pre)
		e.inputFiles = append(e.inputFiles, rest)
	}
	e.specs = []memberSpec{spec}
	return e, nil
}

// setupTrickleJobs: two fact-mode satellites, one resource each,
// preloaded; the rest of each log trickles in small batches.
func setupTrickleJobs(dir string, seed int64, sz Sizes) (*env, error) {
	models := workload.XSEDE2017Models()
	e := &env{dir: dir, batches: sz.TrickleBatches, interval: sz.TrickleInterval}
	for i, m := range []workload.ResourceModel{models[0], models[2]} {
		name := fmt.Sprintf("site%c", 'A'+i)
		e.specs = append(e.specs, memberSpec{name: name, resources: []config.ResourceConfig{hpc(m)}, realms: []string{"Jobs"}})
		trickle := (sz.TrickleBatches/2 + 1) * sz.TrickleBatchLines
		recs := jobsFor(m, sz.TricklePreload+trickle, seed+int64(i)*1000)
		pre, rest, err := splitJobLog(filepath.Join(dir, name), recs, sz.TricklePreload,
			inputFile{member: i, kind: "jobs", resource: m.Name, batchSize: sz.TrickleBatchLines})
		if err != nil {
			return nil, err
		}
		e.preloadFiles = append(e.preloadFiles, pre)
		e.inputFiles = append(e.inputFiles, rest)
	}
	return e, nil
}

// setupTrickleCloudStorage: one satellite replicating its Cloud and
// Storage realms, preloaded with some history of each; batches
// alternate cloud events and storage days.
func setupTrickleCloudStorage(dir string, seed int64, sz Sizes) (*env, error) {
	e := &env{dir: dir, batches: sz.CloudStorageBatches, interval: sz.CloudStorageInterval}
	e.specs = []memberSpec{{name: "siteA", resources: append([]config.ResourceConfig{cloudResource}, storageResources...),
		realms: []string{"Cloud", "Storage"}}}
	each := sz.CloudStoragePreload + sz.CloudStorageBatches/2 + 1 // batches of each kind
	// Every VM has at least three events (request, start, terminate).
	events := workload.CCRCloud2017(each*sz.CloudBatchEvents/3+1, seed)
	days := storageDays(sz.StorageUsers, each, seed+1000)
	split := sz.CloudStoragePreload * sz.CloudBatchEvents
	for _, in := range []struct {
		name  string
		write func(path string) error
		file  inputFile
		pre   bool
	}{
		{"cloud-preload", func(p string) error { return writeCloudEvents(p, events[:split]) }, inputFile{kind: "cloud", batchSize: sz.CloudBatchEvents}, true},
		{"storage-preload", func(p string) error { return writeStorageDays(p, days[:sz.CloudStoragePreload]) }, inputFile{kind: "storage", batchSize: 1}, true},
		{"cloud", func(p string) error { return writeCloudEvents(p, events[split:]) }, inputFile{kind: "cloud", batchSize: sz.CloudBatchEvents}, false},
		{"storage", func(p string) error { return writeStorageDays(p, days[sz.CloudStoragePreload:]) }, inputFile{kind: "storage", batchSize: 1}, false},
	} {
		in.file.path = filepath.Join(dir, "siteA-"+in.name+".jsonl")
		if err := in.write(in.file.path); err != nil {
			return nil, err
		}
		if in.pre {
			e.preloadFiles = append(e.preloadFiles, in.file)
		} else {
			e.inputFiles = append(e.inputFiles, in.file)
		}
	}
	return e, nil
}

// setupChartRead: a static hub preloaded from three members that
// between them carry all three realms, and a seeded request pool.
func setupChartRead(dir string, seed int64, sz Sizes) (*env, error) {
	models := workload.XSEDE2017Models()
	e := &env{dir: dir}
	e.specs = []memberSpec{
		{name: "siteA", resources: []config.ResourceConfig{hpc(models[0]), cloudResource}, realms: []string{"Jobs", "Cloud"}},
		{name: "siteB", resources: append([]config.ResourceConfig{hpc(models[1])}, storageResources...), realms: []string{"Jobs", "Storage"}},
		{name: "siteC", resources: []config.ResourceConfig{hpc(models[2])}, realms: []string{"Jobs"}},
	}
	for i, m := range models {
		path := filepath.Join(dir, e.specs[i].name+"-"+m.Name+".log")
		if err := writeJobLog(path, workload.GenerateJobs(m, sz.ChartJobsScale, seed+int64(i)*1000)); err != nil {
			return nil, err
		}
		e.preloadFiles = append(e.preloadFiles, inputFile{path, i, "jobs", m.Name, backfillBatchLines})
	}
	cloudPath := filepath.Join(dir, "siteA-cloud.jsonl")
	if err := writeCloudEvents(cloudPath, workload.CCRCloud2017(sz.ChartCloudVMs, seed+3000)); err != nil {
		return nil, err
	}
	storagePath := filepath.Join(dir, "siteB-storage.jsonl")
	if err := writeStorageDays(storagePath, storageDays(sz.ChartStorageUsers, sz.ChartStorageDays, seed+4000)); err != nil {
		return nil, err
	}
	e.preloadFiles = append(e.preloadFiles,
		inputFile{cloudPath, 0, "cloud", "", backfillBatchLines},
		inputFile{storagePath, 1, "storage", "", 1})
	e.pool, e.hotPasses = chartPool(rand.New(rand.NewSource(seed)), sz.ChartPool), sz.ChartHotPasses
	return e, nil
}
