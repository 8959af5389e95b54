// Quickstart: stand up a single Open XDMoD-style instance, ingest a
// synthesized Slurm accounting log through the real shredder, and
// chart utilization — the minimal end-to-end tour of the public API.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/chart"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/shredder"
	"xdmodfed/internal/workload"
)

func main() {
	// 1. Describe the installation: one cluster, Table-I style
	//    aggregation levels, an HPL-derived SU factor.
	cfg := config.InstanceConfig{
		Name:    "quickstart",
		Version: core.Version,
		Resources: []config.ResourceConfig{
			{Name: "comet", Type: "hpc", SUFactor: 0.8},
		},
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(),
		},
	}
	in, err := core.NewInstance(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Synthesize a month-by-month 2017 accounting trace, render it
	//    as real `sacct --parsable2` output, and shred+ingest it the
	//    way a production deployment would.
	recs := workload.GenerateJobs(workload.XSEDE2017Models()[0], 40, 1)
	var sacct bytes.Buffer
	if err := shredder.FormatSlurm(&sacct, recs); err != nil {
		log.Fatal(err)
	}
	st, err := in.Pipeline.IngestJobLog(&sacct, "slurm", "comet")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested accounting log: %s\n\n", st)

	// 3. Chart: monthly CPU hours, grouped by queue, 2017.
	series, err := in.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricCPUHours,
		GroupBy:  jobs.DimQueue,
		Period:   aggregate.Month,
		StartKey: 201701, EndKey: 201712,
	})
	if err != nil {
		log.Fatal(err)
	}
	ch := chart.New("CPU Hours: Total", "comet, 2017, by queue", "CPU Hour", aggregate.Month, series)
	fmt.Println(ch.Text())

	// 4. Drill down: wall-time distribution of the busiest queue.
	top := aggregate.TopN(series, 1)[0].Group
	walls, err := in.Engine.DrillDown(jobs.RealmInfo(), aggregate.Request{
		MetricID: jobs.MetricNumJobs, GroupBy: jobs.DimQueue, Period: aggregate.Year,
	}, jobs.DimWallTime, top)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Drill-down into queue %q — jobs by wall-time bucket:\n", top)
	for _, s := range walls {
		fmt.Printf("  %-16s %6.0f jobs\n", s.Group, s.Aggregate)
	}

	// 5. Export the chart as SVG.
	if err := os.WriteFile("quickstart.svg", []byte(ch.SVG(0, 0)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote quickstart.svg")
}
