// Command benchcmp compares two sets of pipeline-bench runs (the
// runs.jsonl files pipeline-bench appends to): one row per workload
// and end-to-end metric with both medians, the ratio with its base,
// the metric's regression bound and a verdict. A pair is "regressed"
// when the new median is worse than the old by more than the bound,
// and "unresolved" when either side's run-to-run spread (the distance
// between its quartiles, as a share of its median) is wider than the
// bound, so that the comparison cannot tell. It exits non-zero on any
// regression, or when a workload's failed/attempted share rose.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"xdmodfed/bench"
)

type key struct{ workload, metric string }

// set is the measured runs of one file, grouped.
type set struct {
	values    map[key][]float64
	attempted map[string]int
	failed    map[string]int
}

func load(path string) (set, error) {
	s := set{values: map[key][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec bench.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue // per-layer metrics have no bounds
		}
		s.attempted[rec.Workload] += rec.Result.Attempted
		s.failed[rec.Workload] += rec.Result.Failed
		for name, m := range rec.Result.Metrics {
			k := key{rec.Workload, name}
			s.values[k] = append(s.values[k], m.Value)
		}
	}
	return s, sc.Err()
}

// quartiles returns the median and the interquartile range of xs by
// the same rule as Python's statistics.quantiles(xs, n=4); the range
// is 0 for fewer than two values.
func quartiles(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	if len(s) < 2 {
		return s[0], 0
	}
	return q(0.5), q(0.75) - q(0.25)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp old.jsonl new.jsonl")
		os.Exit(2)
	}
	old, err := load(os.Args[1])
	if err == nil {
		var cur set
		if cur, err = load(os.Args[2]); err == nil {
			os.Exit(compare(old, cur))
		}
	}
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}

func compare(old, cur set) (exit int) {
	fmt.Printf("%-22s %-26s %14s %14s  %-24s %6s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	for _, w := range bench.Workloads {
		for _, d := range bench.EndToEnd {
			k := key{w.Name, d.Name}
			if len(old.values[k]) == 0 || len(cur.values[k]) == 0 {
				continue
			}
			om, oiqr := quartiles(old.values[k])
			nm, niqr := quartiles(cur.values[k])
			worse := (nm - om) / om
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case oiqr/om > d.Bound || niqr/nm > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				exit = 1
			}
			fmt.Printf("%-22s %-26s %14.4f %14.4f  %-24s %6.2f  %s\n", w.Name, d.Name, om, nm,
				fmt.Sprintf("%.3fx of %.4g %s", nm/om, om, d.Unit), d.Bound, verdict)
		}
		if oa, na := old.attempted[w.Name], cur.attempted[w.Name]; oa > 0 && na > 0 {
			of, nf := float64(old.failed[w.Name])/float64(oa), float64(cur.failed[w.Name])/float64(na)
			if nf > of {
				fmt.Printf("%-22s failed/attempted rose from %d/%d to %d/%d\n", w.Name, old.failed[w.Name], oa, cur.failed[w.Name], na)
				exit = 1
			}
		}
	}
	return exit
}
