package bench

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

// tiny is every workload at roughly a hundredth of its size.
var tiny = Sizes{
	BackfillPreload:    20,
	BackfillBatches:    2,
	BackfillBatchLines: 60,

	TricklePreload:    80,
	TrickleBatches:    4,
	TrickleBatchLines: 10,
	TrickleInterval:   5 * time.Millisecond,

	CloudStoragePreload:  2,
	CloudStorageBatches:  4,
	CloudStorageInterval: 5 * time.Millisecond,
	CloudBatchEvents:     6,
	StorageUsers:         3,

	ChartJobsScale:    5,
	ChartCloudVMs:     10,
	ChartStorageUsers: 3,
	ChartStorageDays:  2,
	ChartPool:         30,
	ChartHotPasses:    2,
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesCode keeps BENCHMARK.json and the metric and
// workload lists compiled into the harness equal, name for name.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(c.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness {%s %s}", i, c.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []Def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, harness {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the harness's %v", kind, d.Name, d.Bound)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", c.EndToEnd, EndToEnd, true)
	check("per_layer", c.PerLayer, PerLayer, false)
}

// runTiny runs one workload at the tiny sizes; problems go to t.Error
// (it is called from several goroutines at once).
func runTiny(t *testing.T, workload string, seed int64, trace bool) Result {
	sz := tiny
	rec, err := Run(Options{Workload: workload, Seed: seed, Seconds: 2, Trace: trace, OutDir: t.TempDir(), Rounds: 1, Sizes: &sz})
	if err != nil {
		t.Errorf("%s seed %d trace %v: %v", workload, seed, trace, err)
	} else if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
		t.Errorf("%s seed %d trace %v: result %+v", workload, seed, trace, rec.Result)
	}
	return rec.Result
}

func names(m map[string]Metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []Def) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsEmitEveryMetric runs every workload small, measured
// twice on one seed and traced once: each run must verify against its
// control, emit exactly the contract's metric names, and the two
// same-seed runs must attempt exactly the same operations.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if raceEnabled {
		t.Skip("the harness refuses to measure under the race detector")
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			// The three runs wait on timers more than on the CPU (a
			// pushdown sender's flush interval, WAL fsyncs).
			var first, again, traced Result
			var wg sync.WaitGroup
			for _, r := range []struct {
				res   *Result
				trace bool
			}{{&first, false}, {&again, false}, {&traced, true}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					*r.res = runTiny(t, w.Name, 7, r.trace)
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got, want := names(first.Metrics), defNames(EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("measured run emitted %v, want %v", got, want)
			}
			for name, m := range first.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
				}
			}
			if first.Attempted != again.Attempted || first.Failed != again.Failed {
				t.Errorf("same seed, different counts: %d/%d then %d/%d attempted/failed", first.Attempted, first.Failed, again.Attempted, again.Failed)
			}
			if got, want := names(traced.Metrics), defNames(PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run emitted %v, want %v", got, want)
			}
		})
	}
}

// digest hashes every generated input file of a set-up.
func digest(t *testing.T, w Workload, seed int64) uint64 {
	t.Helper()
	dir := t.TempDir()
	if _, err := w.setup(dir, seed, tiny); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return h.Sum64()
}

// TestSeedDecidesInputs: the same seed generates the same files, and a
// different seed different ones.
func TestSeedDecidesInputs(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := digest(t, w, 7), digest(t, w, 7), digest(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different sets of inputs", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}
