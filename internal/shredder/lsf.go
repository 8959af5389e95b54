package shredder

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// LSFParser parses IBM Spectrum LSF `lsb.acct` accounting files. Each
// line is a space-separated record whose first field names the record
// type; only "JOB_FINISH" records produce staging job records. Quoted
// fields may contain spaces. The canonical JOB_FINISH layout (LSF 9+)
// begins:
//
//	"JOB_FINISH" version eventTime jobId userId options numProcessors
//	submitTime beginTime termTime startTime userName queue ...
//
// This parser consumes the prefix above plus the quoted userName and
// queue fields, which carries everything the Jobs realm needs.
type LSFParser struct{}

// Parse reads an lsb.acct stream.
func (LSFParser) Parse(r io.Reader, resource string) ([]JobRecord, []ParseError) {
	var recs []JobRecord
	var errs []ParseError
	scanLines(r, func(n int, line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return
		}
		fields, err := splitLSF(line)
		if err != nil {
			errs = append(errs, ParseError{Line: n, Text: line, Err: err})
			return
		}
		if len(fields) == 0 || fields[0] != "JOB_FINISH" {
			return
		}
		rec, err := parseLSFFinish(fields, resource)
		if err != nil {
			errs = append(errs, ParseError{Line: n, Text: line, Err: err})
			return
		}
		if err := rec.Validate(); err != nil {
			errs = append(errs, ParseError{Line: n, Text: line, Err: err})
			return
		}
		recs = append(recs, rec)
	})
	return recs, errs
}

// splitLSF tokenizes an lsb.acct line, honoring double-quoted fields
// with "" escapes.
func splitLSF(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			var b strings.Builder
			i++
			for {
				if i >= len(line) {
					return nil, fmt.Errorf("unterminated quoted field")
				}
				if line[i] == '"' {
					if i+1 < len(line) && line[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(line[i])
				i++
			}
			out = append(out, b.String())
			continue
		}
		start := i
		for i < len(line) && line[i] != ' ' {
			i++
		}
		out = append(out, line[start:i])
	}
	return out, nil
}

// Field positions within a JOB_FINISH record (after tokenization).
const (
	lsfJobID    = 3
	lsfNumProcs = 6
	lsfSubmit   = 7
	lsfStart    = 10
	lsfUser     = 11
	lsfQueue    = 12
	lsfEvent    = 2 // event (finish) time
	lsfMinLen   = 13
)

func parseLSFFinish(f []string, resource string) (JobRecord, error) {
	var rec JobRecord
	rec.Resource = resource
	if len(f) < lsfMinLen {
		return rec, fmt.Errorf("JOB_FINISH record has %d fields, need %d", len(f), lsfMinLen)
	}
	var err error
	if rec.LocalJobID, err = strconv.ParseInt(f[lsfJobID], 10, 64); err != nil {
		return rec, fmt.Errorf("bad jobId %q", f[lsfJobID])
	}
	if rec.Cores, err = strconv.ParseInt(f[lsfNumProcs], 10, 64); err != nil {
		return rec, fmt.Errorf("bad numProcessors %q", f[lsfNumProcs])
	}
	rec.Nodes = 1
	if rec.Submit, err = lsfTime(f[lsfSubmit]); err != nil {
		return rec, fmt.Errorf("bad submitTime %q", f[lsfSubmit])
	}
	if rec.Start, err = lsfTime(f[lsfStart]); err != nil {
		return rec, fmt.Errorf("bad startTime %q", f[lsfStart])
	}
	if rec.End, err = lsfTime(f[lsfEvent]); err != nil {
		return rec, fmt.Errorf("bad eventTime %q", f[lsfEvent])
	}
	rec.User = f[lsfUser]
	rec.Queue = f[lsfQueue]
	rec.Account = f[lsfUser] // lsb.acct carries no project; default to user
	rec.ExitState = "DONE"
	return rec, nil
}

func lsfTime(s string) (time.Time, error) {
	sec, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(sec, 0).UTC(), nil
}
