package shredder

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var slurmSample = strings.Join([]string{
	"1001|md_run|alice|chem101|general|2|48|2017-03-01T08:00:00|2017-03-01T09:00:00|2017-03-01T21:30:00|COMPLETED",
	"1001.batch|batch|alice|chem101|general|2|48|2017-03-01T08:00:00|2017-03-01T09:00:00|2017-03-01T21:30:00|COMPLETED",
	"1001.0|orted|alice|chem101|general|2|48|2017-03-01T08:00:00|2017-03-01T09:00:00|2017-03-01T21:30:00|COMPLETED",
	"1002|cfd|bob|aero2|debug|1|8|2017-03-01T10:00:00|2017-03-01T10:05:00|2017-03-01T10:35:00|FAILED",
	"1003|longjob|carol|bio7|general|4|96|2017-03-01T11:00:00|2017-03-01T12:00:00|Unknown|RUNNING",
	"",
	"# a comment",
}, "\n")

func TestSlurmParse(t *testing.T) {
	recs, errs := SlurmParser{}.Parse(strings.NewReader(slurmSample), "rush")
	if len(errs) != 0 {
		t.Fatalf("unexpected parse errors: %v", errs)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (steps and running jobs skipped)", len(recs))
	}
	r := recs[0]
	if r.LocalJobID != 1001 || r.User != "alice" || r.Account != "chem101" || r.Queue != "general" {
		t.Errorf("record fields wrong: %+v", r)
	}
	if r.Resource != "rush" {
		t.Errorf("resource = %q, want rush", r.Resource)
	}
	if r.Nodes != 2 || r.Cores != 48 {
		t.Errorf("nodes/cores = %d/%d", r.Nodes, r.Cores)
	}
	if got := r.Wall(); got != 12*time.Hour+30*time.Minute {
		t.Errorf("wall = %v", got)
	}
	if got := r.Wait(); got != time.Hour {
		t.Errorf("wait = %v", got)
	}
	if got := r.CPUHours(); got != 48*12.5 {
		t.Errorf("cpu hours = %g", got)
	}
	if recs[1].ExitState != "FAILED" {
		t.Errorf("exit state = %q", recs[1].ExitState)
	}
}

func TestSlurmParseErrors(t *testing.T) {
	bad := strings.Join([]string{
		"only|three|fields",
		"notanumber|n|u|a|q|1|1|2017-01-01T00:00:00|2017-01-01T00:00:00|2017-01-01T01:00:00|OK",
		"1|n|u|a|q|x|1|2017-01-01T00:00:00|2017-01-01T00:00:00|2017-01-01T01:00:00|OK",
		"1|n|u|a|q|1|1|bogus|2017-01-01T00:00:00|2017-01-01T01:00:00|OK",
		"2|n|u|a|q|1|1|2017-01-01T00:00:00|2017-01-01T02:00:00|2017-01-01T01:00:00|OK", // ends before start
		"3|n||a|q|1|1|2017-01-01T00:00:00|2017-01-01T00:30:00|2017-01-01T01:00:00|OK",  // no user
	}, "\n")
	recs, errs := SlurmParser{}.Parse(strings.NewReader(bad), "r")
	if len(recs) != 0 {
		t.Errorf("got %d records from garbage", len(recs))
	}
	if len(errs) != 6 {
		t.Errorf("got %d errors, want 6: %v", len(errs), errs)
	}
	for _, e := range errs {
		if e.Line == 0 || e.Error() == "" {
			t.Errorf("error missing line info: %+v", e)
		}
	}
}

func TestSlurmRoundTrip(t *testing.T) {
	in := []JobRecord{
		{
			LocalJobID: 42, JobName: "sim", User: "u1", Account: "acct", Resource: "r",
			Queue: "batch", Nodes: 3, Cores: 72,
			Submit: time.Date(2017, 5, 1, 0, 0, 0, 0, time.UTC),
			Start:  time.Date(2017, 5, 1, 1, 0, 0, 0, time.UTC),
			End:    time.Date(2017, 5, 1, 9, 0, 0, 0, time.UTC),
		},
	}
	var buf bytes.Buffer
	if err := FormatSlurm(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, errs := SlurmParser{}.Parse(&buf, "r")
	if len(errs) != 0 || len(out) != 1 {
		t.Fatalf("round trip failed: %d recs, errs %v", len(out), errs)
	}
	if out[0] != in[0] {
		// ExitState defaults to COMPLETED on format.
		want := in[0]
		want.ExitState = "COMPLETED"
		if out[0] != want {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out[0], want)
		}
	}
}

var pbsSample = strings.Join([]string{
	`03/01/2017 21:30:00;E;2001.server.example.org;user=alice group=chem account=chem101 jobname=md queue=batch ctime=1488355200 qtime=1488355200 etime=1488355200 start=1488358800 end=1488403800 Resource_List.nodect=2 Resource_List.ncpus=48 Exit_status=0`,
	`03/01/2017 10:00:00;Q;2002.server.example.org;queue=batch`,
	`03/01/2017 10:05:00;S;2002.server.example.org;user=bob`,
}, "\n")

func TestPBSParse(t *testing.T) {
	recs, errs := PBSParser{}.Parse(strings.NewReader(pbsSample), "old-cluster")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (only E records count)", len(recs))
	}
	r := recs[0]
	if r.LocalJobID != 2001 || r.User != "alice" || r.Account != "chem101" || r.Cores != 48 {
		t.Errorf("record wrong: %+v", r)
	}
	if r.Submit.Unix() != 1488355200 || r.End.Unix() != 1488403800 {
		t.Errorf("times wrong: %+v", r)
	}
}

func TestPBSParseErrors(t *testing.T) {
	bad := strings.Join([]string{
		"not a pbs line",
		`03/01/2017 10:00:00;E;abc.server;user=a`,
		`03/01/2017 10:00:00;E;1.server;user=a ctime=x start=1 end=2`,
		`03/01/2017 10:00:00;E;2.server;user=a ctime=1 start=1`, // missing end
	}, "\n")
	recs, errs := PBSParser{}.Parse(strings.NewReader(bad), "r")
	if len(recs) != 0 {
		t.Errorf("got %d records from garbage", len(recs))
	}
	if len(errs) != 4 {
		t.Errorf("got %d errors, want 4: %v", len(errs), errs)
	}
}

// TestPBSRoundTrip: the accounting "E" record PBS writes for a finished
// job parses back to that job, field for field.
func TestPBSRoundTrip(t *testing.T) {
	in := JobRecord{
		LocalJobID: 7, JobName: "x", User: "u", Account: "a", Resource: "r",
		Queue: "q", Nodes: 1, Cores: 16,
		Submit: time.Date(2017, 2, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 2, 1, 2, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 2, 1, 5, 0, 0, 0, time.UTC),
	}
	line := "02/01/2017 05:00:00;E;7.server;user=u group=a account=a jobname=x queue=q " +
		"ctime=1485907200 qtime=1485907200 etime=1485907200 start=1485914400 end=1485925200 " +
		"Resource_List.nodect=1 Resource_List.ncpus=16 Exit_status=0\n"
	out, errs := PBSParser{}.Parse(strings.NewReader(line), "r")
	if len(errs) != 0 || len(out) != 1 {
		t.Fatalf("round trip failed: %v", errs)
	}
	got := out[0]
	got.ExitState = ""
	if got != in {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestNewParserFactory(t *testing.T) {
	for f, want := range map[string]Parser{
		"slurm": SlurmParser{}, "pbs": PBSParser{}, "lsf": LSFParser{}, "TORQUE": PBSParser{},
	} {
		p, err := New(f)
		if err != nil || p != want {
			t.Errorf("New(%q) = %T, %v; want %T", f, p, err, want)
		}
	}
	if _, err := New("lsf2"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestJobRecordValidate(t *testing.T) {
	good := JobRecord{
		LocalJobID: 1, User: "u", Resource: "r", Cores: 1,
		Submit: time.Now(), Start: time.Now(), End: time.Now().Add(time.Hour),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := []func(*JobRecord){
		func(j *JobRecord) { j.LocalJobID = 0 },
		func(j *JobRecord) { j.User = "" },
		func(j *JobRecord) { j.Resource = "" },
		func(j *JobRecord) { j.End = time.Time{} },
		func(j *JobRecord) { j.End = j.Start.Add(-time.Hour) },
		func(j *JobRecord) { j.Cores = 0 },
	}
	for i, mutate := range bad {
		j := good
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestPropertySlurmRoundTrip: formatting then parsing any valid record
// is the identity (on the fields the format carries).
func TestPropertySlurmRoundTrip(t *testing.T) {
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	f := func(id uint16, nodes, cores uint8, waitMin, wallMin uint16) bool {
		rec := JobRecord{
			LocalJobID: int64(id) + 1,
			JobName:    "j", User: "u", Account: "a", Resource: "r", Queue: "q",
			Nodes: int64(nodes) + 1, Cores: int64(cores) + 1,
			Submit:    base,
			Start:     base.Add(time.Duration(waitMin) * time.Minute),
			ExitState: "COMPLETED",
		}
		rec.End = rec.Start.Add(time.Duration(wallMin) * time.Minute).Add(time.Minute)
		var buf bytes.Buffer
		if err := FormatSlurm(&buf, []JobRecord{rec}); err != nil {
			return false
		}
		out, errs := SlurmParser{}.Parse(&buf, "r")
		return len(errs) == 0 && len(out) == 1 && out[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
