// Package shredder parses resource-manager accounting logs into
// staging job records, the first stage of the XDMoD data pipeline
// ("XDMoD mines log files from resource managers such as SLURM",
// paper §I-D). Open XDMoD calls this stage the shredder; it accepts
// data "from a variety of resource managers" (§I-C), so this package
// provides a parser per format behind a common interface.
package shredder

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// JobRecord is one completed job in staging form: raw fields from the
// resource manager, before normalization/ingest into the warehouse.
type JobRecord struct {
	LocalJobID int64
	JobName    string
	User       string
	Account    string // charge account / PI group
	Resource   string // resource the log came from (set by the shredder config)
	Queue      string
	Nodes      int64
	Cores      int64
	Submit     time.Time
	Start      time.Time
	End        time.Time
	ExitState  string
}

// Wall returns the job's wall time.
func (j JobRecord) Wall() time.Duration {
	if j.End.Before(j.Start) {
		return 0
	}
	return j.End.Sub(j.Start)
}

// Wait returns the queue wait time (start - submit).
func (j JobRecord) Wait() time.Duration {
	if j.Start.Before(j.Submit) {
		return 0
	}
	return j.Start.Sub(j.Submit)
}

// CPUHours returns core count × wall hours, the raw (local,
// unstandardized) charge unit.
func (j JobRecord) CPUHours() float64 {
	return float64(j.Cores) * j.Wall().Hours()
}

// Validate rejects records that cannot be ingested.
func (j JobRecord) Validate() error {
	if j.LocalJobID <= 0 {
		return fmt.Errorf("shredder: job has invalid id %d", j.LocalJobID)
	}
	if j.User == "" {
		return fmt.Errorf("shredder: job %d has no user", j.LocalJobID)
	}
	if j.Resource == "" {
		return fmt.Errorf("shredder: job %d has no resource", j.LocalJobID)
	}
	if j.End.IsZero() || j.Start.IsZero() {
		return fmt.Errorf("shredder: job %d missing start/end time", j.LocalJobID)
	}
	if j.End.Before(j.Start) {
		return fmt.Errorf("shredder: job %d ends before it starts", j.LocalJobID)
	}
	if j.Cores <= 0 {
		return fmt.Errorf("shredder: job %d has no cores", j.LocalJobID)
	}
	return nil
}

// ParseError reports one unparseable log line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

// Error implements the error interface.
func (e ParseError) Error() string {
	return fmt.Sprintf("line %d: %v", e.Line, e.Err)
}

// Parser converts one accounting-log stream into staging job records.
// Parsers are tolerant: bad lines are reported in the ParseError slice
// while good lines still produce records, matching how production
// shredders must survive malformed accounting data.
type Parser interface {
	// Parse reads the log and returns records for resource.
	Parse(r io.Reader, resource string) ([]JobRecord, []ParseError)
}

// New returns the parser for a named format.
func New(format string) (Parser, error) {
	switch strings.ToLower(format) {
	case "slurm":
		return SlurmParser{}, nil
	case "pbs", "torque":
		return PBSParser{}, nil
	case "lsf":
		return LSFParser{}, nil
	default:
		return nil, fmt.Errorf("shredder: unknown log format %q", format)
	}
}

func scanLines(r io.Reader, fn func(n int, line string)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		fn(n, sc.Text())
	}
}
