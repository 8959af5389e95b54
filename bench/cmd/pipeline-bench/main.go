// Command pipeline-bench runs the repository's pipeline benchmark:
// one workload, one seed, measured (--trace 0) or traced (--trace 1).
// The last line of its standard output is the result as one JSON
// object; the run is also appended, with its host block and sizes, to
// runs.jsonl in the output directory for benchcmp to read. Without
// --workload it runs every workload both ways.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"xdmodfed/bench"
	"xdmodfed/internal/obs"
)

func main() {
	var o bench.Options
	trace := flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.Workload, "workload", "", "workload name; empty runs all of them, measured and traced")
	flag.Int64Var(&o.Seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.Seconds, "seconds", 12, "length of the timed section")
	flag.StringVar(&o.OutDir, "out", filepath.Join("bench", "out"), "directory for trace files, runs.jsonl and temporary files")
	flag.Parse()
	// The daemons log to stderr at INFO; per-connection lines would
	// drown the harness's own diagnostics.
	obs.SetLogLevel(slog.LevelWarn)

	ok := true
	if o.Workload != "" {
		o.Trace = *trace == 1
		ok = run(o)
	} else {
		for _, w := range bench.Workloads {
			for _, traced := range []bool{false, true} {
				o.Workload, o.Trace = w.Name, traced
				ok = run(o) && ok
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// run performs one run, prints its metrics by name to stderr and its
// result line to stdout, and reports whether every output was correct.
func run(o bench.Options) bool {
	rec, err := bench.Run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline-bench:", err)
		return false
	}
	host, _ := json.Marshal(rec.Host)
	fmt.Fprintf(os.Stderr, "# %s seed=%d seconds=%v trace=%v host=%s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, host)
	defs := bench.EndToEnd
	if o.Trace {
		defs = bench.PerLayer
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "%-40s %16.4f %s\n", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit)
	}
	if line, err := json.Marshal(rec); err == nil {
		f, err := os.OpenFile(filepath.Join(o.OutDir, "runs.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			f.Write(append(line, '\n'))
			f.Close()
		}
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
	return rec.Result.Correct
}
