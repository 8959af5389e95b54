package shredder

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// SlurmParser parses the pipe-delimited output of
//
//	sacct --format=JobID,JobName,User,Account,Partition,NNodes,NCPUS,Submit,Start,End,State --parsable2 --noheader
//
// which is the log form Open XDMoD's slurm shredder consumes.
type SlurmParser struct{}

const slurmFields = 11

// slurmTime is sacct's ISO-ish timestamp layout.
const slurmTime = "2006-01-02T15:04:05"

// Parse reads sacct output. Job steps (IDs like "123.batch" or
// "123.0") are skipped: only the parent allocation line becomes a
// record, as in the real shredder. Jobs that have not finished
// (End == "Unknown") are skipped too.
func (SlurmParser) Parse(r io.Reader, resource string) ([]JobRecord, []ParseError) {
	var recs []JobRecord
	var errs []ParseError
	scanLines(r, func(n int, line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return
		}
		fields := strings.Split(line, "|")
		if len(fields) != slurmFields {
			errs = append(errs, ParseError{Line: n, Text: line,
				Err: fmt.Errorf("expected %d fields, got %d", slurmFields, len(fields))})
			return
		}
		if strings.Contains(fields[0], ".") {
			return // job step, not the allocation
		}
		rec, err := parseSlurmFields(fields, resource)
		if err != nil {
			errs = append(errs, ParseError{Line: n, Text: line, Err: err})
			return
		}
		if rec.End.IsZero() {
			return // still running
		}
		if err := rec.Validate(); err != nil {
			errs = append(errs, ParseError{Line: n, Text: line, Err: err})
			return
		}
		recs = append(recs, rec)
	})
	return recs, errs
}

func parseSlurmFields(f []string, resource string) (JobRecord, error) {
	var rec JobRecord
	rec.Resource = resource
	id, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad JobID %q", f[0])
	}
	rec.LocalJobID = id
	rec.JobName = f[1]
	rec.User = f[2]
	rec.Account = f[3]
	rec.Queue = f[4]
	if rec.Nodes, err = strconv.ParseInt(f[5], 10, 64); err != nil {
		return rec, fmt.Errorf("bad NNodes %q", f[5])
	}
	if rec.Cores, err = strconv.ParseInt(f[6], 10, 64); err != nil {
		return rec, fmt.Errorf("bad NCPUS %q", f[6])
	}
	if rec.Submit, err = parseSlurmTime(f[7]); err != nil {
		return rec, fmt.Errorf("bad Submit %q", f[7])
	}
	if rec.Start, err = parseSlurmTime(f[8]); err != nil {
		return rec, fmt.Errorf("bad Start %q", f[8])
	}
	if f[9] != "Unknown" {
		if rec.End, err = parseSlurmTime(f[9]); err != nil {
			return rec, fmt.Errorf("bad End %q", f[9])
		}
	}
	rec.ExitState = f[10]
	return rec, nil
}

func parseSlurmTime(s string) (time.Time, error) {
	return time.ParseInLocation(slurmTime, strings.TrimSpace(s), time.UTC)
}

// FormatSlurm renders records back into sacct --parsable2 form; the
// workload generators use it to synthesize accounting logs that then
// flow through the real parser, exercising the full pipeline.
func FormatSlurm(w io.Writer, recs []JobRecord) error {
	for _, r := range recs {
		end := "Unknown"
		if !r.End.IsZero() {
			end = r.End.UTC().Format(slurmTime)
		}
		state := r.ExitState
		if state == "" {
			state = "COMPLETED"
		}
		_, err := fmt.Fprintf(w, "%d|%s|%s|%s|%s|%d|%d|%s|%s|%s|%s\n",
			r.LocalJobID, r.JobName, r.User, r.Account, r.Queue, r.Nodes, r.Cores,
			r.Submit.UTC().Format(slurmTime), r.Start.UTC().Format(slurmTime), end, state)
		if err != nil {
			return err
		}
	}
	return nil
}
