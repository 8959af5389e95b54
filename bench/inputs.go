package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"xdmodfed/internal/ingest"
	"xdmodfed/internal/realm/cloud"
	"xdmodfed/internal/realm/storage"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/workload"
)

// Inputs are generated from the seed during set-up, written to files
// in the run's temporary directory, and only those files are handed to
// the system: Slurm accounting logs as sacct text, cloud events as one
// JSON object per line, storage usage as one JSON document (an array
// of snapshots for one collection day) per line.

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJobLog(path string, recs []shredder.JobRecord) error {
	return writeFile(path, func(w *bufio.Writer) error { return shredder.FormatSlurm(w, recs) })
}

func writeCloudEvents(path string, evs []cloud.Event) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// storageDays re-dates workload.CCRStorage2017's monthly collection
// runs onto consecutive days, one document per day, so a trickle can
// deliver one new day per batch.
func storageDays(users, days int, seed int64) [][]storage.Snapshot {
	var out [][]storage.Snapshot
	for gen := int64(0); len(out) < days; gen++ {
		var month []storage.Snapshot
		flush := func() {
			if len(month) > 0 && len(out) < days {
				day := time.Date(2017, 1, 1, 6, 0, 0, 0, time.UTC).AddDate(0, 0, len(out))
				for i := range month {
					month[i].Timestamp = day
				}
				out = append(out, month)
			}
			month = nil
		}
		for _, s := range workload.CCRStorage2017(users, seed+gen) {
			if len(month) > 0 && !s.Timestamp.Equal(month[0].Timestamp) {
				flush()
			}
			month = append(month, s)
		}
		flush()
	}
	return out
}

func writeStorageDays(path string, days [][]storage.Snapshot) error {
	return writeFile(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, day := range days {
			if err := enc.Encode(day); err != nil {
				return err
			}
		}
		return nil
	})
}

// batch is one unit of input for one member's ingestion pipeline: the
// raw bytes of some lines of one input file.
type batch struct {
	member   int
	kind     string // "jobs", "cloud" or "storage"
	resource string // jobs only: the resource the log belongs to
	data     []byte
	lines    int
}

// inputFile is one generated file and how to deal it.
type inputFile struct {
	path      string
	member    int
	kind      string // "jobs", "cloud" or "storage"
	resource  string // jobs only
	batchSize int    // lines per batch
}

// feed streams one input file as batches of lines.
type feed struct {
	inputFile
	f *os.File
	r *bufio.Reader
}

// openFeeds opens every file, or none.
func openFeeds(files []inputFile) ([]*feed, error) {
	var feeds []*feed
	for _, in := range files {
		f, err := os.Open(in.path)
		if err != nil {
			closeFeeds(feeds)
			return nil, err
		}
		feeds = append(feeds, &feed{inputFile: in, f: f, r: bufio.NewReaderSize(f, 1<<16)})
	}
	return feeds, nil
}

func closeFeeds(feeds []*feed) {
	for _, fd := range feeds {
		fd.f.Close()
	}
}

// next reads the file's next batch; ok is false at end of file.
func (fd *feed) next() (b batch, ok bool, err error) {
	var buf bytes.Buffer
	lines := 0
	for lines < fd.batchSize {
		line, err := fd.r.ReadBytes('\n')
		if len(line) > 0 {
			buf.Write(line)
			lines++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return batch{}, false, err
		}
	}
	if lines == 0 {
		return batch{}, false, nil
	}
	return batch{member: fd.member, kind: fd.kind, resource: fd.resource, data: buf.Bytes(), lines: lines}, true, nil
}

// rotation deals batches from several feeds in turn, skipping feeds
// that have run dry.
type rotation struct {
	feeds []*feed
	turn  int
}

func (r *rotation) next() (batch, bool, error) {
	for tries := 0; tries < len(r.feeds); tries++ {
		fd := r.feeds[r.turn%len(r.feeds)]
		r.turn++
		if b, ok, err := fd.next(); err != nil || ok {
			return b, ok, err
		}
	}
	return batch{}, false, nil
}

func (r *rotation) Close() { closeFeeds(r.feeds) }

// parsed is a batch after the shred step, ready to commit.
type parsed struct {
	jobs     []shredder.JobRecord
	cloud    []cloud.Event
	storage  []storage.Snapshot
	records  int // job lines, cloud events or storage snapshots in the batch
	rejected int
}

// shred turns a batch's bytes into records with the layer's own
// parser (the harness decodes cloud events itself: that realm has no
// file format of its own).
func shred(b batch) (parsed, error) {
	var p parsed
	switch b.kind {
	case "jobs":
		parser, err := shredder.New("slurm")
		if err != nil {
			return p, err
		}
		var perrs []shredder.ParseError
		p.jobs, perrs = parser.Parse(bytes.NewReader(b.data), b.resource)
		p.records, p.rejected = b.lines, len(perrs)
	case "cloud":
		dec := json.NewDecoder(bytes.NewReader(b.data))
		for dec.More() {
			var ev cloud.Event
			if err := dec.Decode(&ev); err != nil {
				return p, err
			}
			p.cloud = append(p.cloud, ev)
		}
		p.records = len(p.cloud)
	case "storage":
		var err error
		if p.storage, err = storage.ParseJSON(bytes.NewReader(b.data)); err != nil {
			return p, err
		}
		p.records = len(p.storage)
	default:
		return p, fmt.Errorf("bench: unknown batch kind %q", b.kind)
	}
	return p, nil
}

// commit ingests shredded records through the member's pipeline.
func commit(pl *ingest.Pipeline, p parsed) (ingest.Stats, error) {
	switch {
	case p.cloud != nil:
		return pl.IngestCloudEvents(p.cloud, workload.CloudHorizon2017)
	case p.storage != nil:
		return pl.IngestStorageSnapshots(p.storage)
	default:
		return pl.IngestJobRecords(p.jobs)
	}
}

// ingestBatch is the live path: jobs go through Pipeline.IngestJobLog
// exactly as the ingestor daemon feeds them; cloud and storage are
// shredded by the harness and committed. It returns the records in
// the batch and how many of them were rejected.
func ingestBatch(pl *ingest.Pipeline, b batch) (records, rejected int, err error) {
	if b.kind == "jobs" {
		st, err := pl.IngestJobLog(bytes.NewReader(b.data), "slurm", b.resource)
		return b.lines, st.Rejected + st.Skipped, err
	}
	p, err := shred(b)
	if err != nil {
		return 0, 0, err
	}
	st, err := commit(pl, p)
	return p.records, p.rejected + st.Rejected, err
}
