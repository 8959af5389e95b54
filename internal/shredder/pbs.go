package shredder

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// PBSParser parses PBS/TORQUE server accounting logs. Each line is
//
//	MM/DD/YYYY HH:MM:SS;<type>;<jobid>;key=value key=value ...
//
// Only "E" (job end) records produce staging job records; other record
// types (Q queued, S started, D deleted, ...) are skipped.
type PBSParser struct{}

// Parse reads a PBS accounting log.
func (PBSParser) Parse(r io.Reader, resource string) ([]JobRecord, []ParseError) {
	var recs []JobRecord
	var errs []ParseError
	scanLines(r, func(n int, line string) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			return
		}
		parts := strings.SplitN(line, ";", 4)
		if len(parts) != 4 {
			errs = append(errs, ParseError{Line: n, Text: line, Err: fmt.Errorf("expected 4 ;-separated sections, got %d", len(parts))})
			return
		}
		if parts[1] != "E" {
			return
		}
		rec, err := parsePBSEnd(parts[2], parts[3], resource)
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

func parsePBSEnd(jobField, attrs, resource string) (JobRecord, error) {
	var rec JobRecord
	rec.Resource = resource

	idPart := jobField
	if i := strings.IndexByte(idPart, '.'); i >= 0 {
		idPart = idPart[:i] // "1234.server.domain" -> "1234"
	}
	id, err := strconv.ParseInt(idPart, 10, 64)
	if err != nil {
		return rec, fmt.Errorf("bad job id %q", jobField)
	}
	rec.LocalJobID = id

	kv := map[string]string{}
	for _, tok := range strings.Fields(attrs) {
		eq := strings.IndexByte(tok, '=')
		if eq < 0 {
			continue
		}
		kv[tok[:eq]] = tok[eq+1:]
	}
	rec.User = kv["user"]
	rec.Account = kv["account"]
	if rec.Account == "" {
		rec.Account = kv["group"]
	}
	rec.Queue = kv["queue"]
	rec.JobName = kv["jobname"]

	if v := kv["Resource_List.nodect"]; v != "" {
		if rec.Nodes, err = strconv.ParseInt(v, 10, 64); err != nil {
			return rec, fmt.Errorf("bad nodect %q", v)
		}
	}
	switch {
	case kv["Resource_List.ncpus"] != "":
		if rec.Cores, err = strconv.ParseInt(kv["Resource_List.ncpus"], 10, 64); err != nil {
			return rec, fmt.Errorf("bad ncpus %q", kv["Resource_List.ncpus"])
		}
	case kv["resources_used.cput"] != "" && rec.Nodes > 0:
		// Fall back to node count when ncpus is absent.
		rec.Cores = rec.Nodes
	default:
		rec.Cores = rec.Nodes
	}

	if rec.Submit, err = parseUnixAttr(kv, "ctime"); err != nil {
		return rec, err
	}
	if rec.Start, err = parseUnixAttr(kv, "start"); err != nil {
		return rec, err
	}
	if rec.End, err = parseUnixAttr(kv, "end"); err != nil {
		return rec, err
	}
	rec.ExitState = kv["Exit_status"]
	return rec, nil
}

func parseUnixAttr(kv map[string]string, key string) (time.Time, error) {
	v, ok := kv[key]
	if !ok {
		return time.Time{}, fmt.Errorf("missing %s", key)
	}
	sec, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad %s %q", key, v)
	}
	return time.Unix(sec, 0).UTC(), nil
}
