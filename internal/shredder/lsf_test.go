package shredder

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var lsfSample = strings.Join([]string{
	`"JOB_FINISH" "10.1" 1488403800 3001 1001 0 48 1488355200 1488355200 0 1488358800 "alice" "normal"`,
	`"JOB_START" "10.1" 1488358800 3002 1001 0 8`,
	`# comment`,
	``,
}, "\n")

func TestLSFParse(t *testing.T) {
	recs, errs := LSFParser{}.Parse(strings.NewReader(lsfSample), "lsf-cluster")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 (only JOB_FINISH)", len(recs))
	}
	r := recs[0]
	if r.LocalJobID != 3001 || r.User != "alice" || r.Queue != "normal" || r.Cores != 48 {
		t.Errorf("record = %+v", r)
	}
	if r.Submit.Unix() != 1488355200 || r.Start.Unix() != 1488358800 || r.End.Unix() != 1488403800 {
		t.Errorf("times = %v %v %v", r.Submit, r.Start, r.End)
	}
	if r.Resource != "lsf-cluster" {
		t.Errorf("resource = %q", r.Resource)
	}
}

func TestLSFQuotedFields(t *testing.T) {
	line := `"JOB_FINISH" "10.1" 1488403800 1 1001 0 4 1488355200 1488355200 0 1488358800 "user ""quoted"" name" "queue with space"`
	recs, errs := LSFParser{}.Parse(strings.NewReader(line), "r")
	if len(errs) != 0 || len(recs) != 1 {
		t.Fatalf("recs=%d errs=%v", len(recs), errs)
	}
	if recs[0].User != `user "quoted" name` || recs[0].Queue != "queue with space" {
		t.Errorf("quoting mishandled: %+v", recs[0])
	}
}

func TestLSFParseErrors(t *testing.T) {
	bad := strings.Join([]string{
		`"JOB_FINISH" "10.1" 1488403800 1`,                                              // too short
		`"JOB_FINISH" "10.1" xyz 2 1001 0 4 1488355200 1488355200 0 1488358800 "u" "q"`, // bad time
		`"JOB_FINISH" "10.1" 1488403800 abc 1001 0 4 1488355200 1488355200 0 1488358800 "u" "q"`,
		`"JOB_FINISH" "unterminated`,
	}, "\n")
	recs, errs := LSFParser{}.Parse(strings.NewReader(bad), "r")
	if len(recs) != 0 {
		t.Errorf("records from garbage: %d", len(recs))
	}
	if len(errs) != 4 {
		t.Errorf("errors = %d, want 4: %v", len(errs), errs)
	}
}

// TestLSFRoundTrip: the lsb.acct line LSF writes for a finished job
// parses back to that job, field for field.
func TestLSFRoundTrip(t *testing.T) {
	in := JobRecord{
		LocalJobID: 9, User: "bob", Account: "bob", Resource: "r", Queue: "short",
		Nodes: 1, Cores: 16,
		Submit: time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC),
		Start:  time.Date(2017, 4, 1, 1, 0, 0, 0, time.UTC),
		End:    time.Date(2017, 4, 1, 5, 0, 0, 0, time.UTC),
	}
	line := `"JOB_FINISH" "10.1" 1491022800 9 1001 0 16 1491004800 1491004800 0 1491008400 "bob" "short"` + "\n"
	out, errs := LSFParser{}.Parse(strings.NewReader(line), "r")
	if len(errs) != 0 || len(out) != 1 {
		t.Fatalf("round trip: %v", errs)
	}
	got := out[0]
	got.ExitState = ""
	if got != in {
		t.Errorf("mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestLSFRegistered(t *testing.T) {
	p, err := New("lsf")
	if err != nil {
		t.Fatalf("lsf not registered: %v", err)
	}
	if _, ok := p.(LSFParser); !ok {
		t.Errorf("New(lsf) = %T", p)
	}
}

// TestPropertySplitLSF: the tokenizer round-trips arbitrary
// space/quote-free tokens and treats quoted fields atomically.
func TestPropertySplitLSF(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r == ' ' || r == '"' || r < 0x20 || r > 0x7e {
					return -1
				}
				return r
			}, w)
			if w != "" {
				clean = append(clean, w)
			}
		}
		line := strings.Join(clean, " ")
		got, err := splitLSF(line)
		if err != nil {
			return false
		}
		if len(got) != len(clean) {
			return false
		}
		for i := range clean {
			if got[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
