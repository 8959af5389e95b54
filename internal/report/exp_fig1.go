package report

import (
	"fmt"
	"strings"

	"xdmodfed/internal/aggregate"
	"xdmodfed/internal/chart"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/realm/jobs"
	"xdmodfed/internal/workload"
)

// xsedeInstanceConfig builds an XSEDE-like instance monitoring the
// Figure 1 resources.
func xsedeInstanceConfig() config.InstanceConfig {
	cfg := config.InstanceConfig{
		Name:    "xsede-xdmod",
		Version: core.Version,
		AggregationLevels: []config.AggregationLevels{
			config.HubWallTime(), config.DefaultJobSize(), config.CloudVMMemory(),
		},
	}
	for _, m := range workload.XSEDE2017Models() {
		cfg.Resources = append(cfg.Resources, config.ResourceConfig{Name: m.Name, Type: "hpc", SUFactor: m.SUFactor})
	}
	return cfg
}

// RunFig1 regenerates Figure 1: "the top three XSEDE resources in
// 2017, by total SUs charged: Comet (blue); Stampede2 (red); and
// Stampede (gray)" — a monthly XD SU timeseries produced by ingesting
// a synthesized XSEDE 2017 accounting trace through the full pipeline
// and charting total standardized SUs grouped by resource.
func RunFig1(opts Options) (*Result, error) {
	in, err := core.NewInstance(xsedeInstanceConfig())
	if err != nil {
		return nil, err
	}
	recs := workload.XSEDE2017(opts.Scale, opts.Seed)
	st, err := in.Pipeline.IngestJobRecords(recs)
	if err != nil {
		return nil, err
	}
	series, err := in.Query("Jobs", aggregate.Request{
		MetricID: jobs.MetricXDSU,
		GroupBy:  jobs.DimResource,
		Period:   aggregate.Month,
		StartKey: 201701, EndKey: 201712,
	})
	if err != nil {
		return nil, err
	}
	top3 := aggregate.TopN(series, 3)

	ch := chart.New(
		"XD SUs Charged: Total",
		"Top 3 XSEDE resources, 2017 (synthesized trace)",
		"XD SU", aggregate.Month, top3)

	totals := map[string]float64{}
	for _, s := range series {
		totals[s.Group] = s.Aggregate
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Ingested %d synthesized 2017 job records (%s).\n\n", st.Ingested, st)
	b.WriteString(ch.Text())
	b.WriteByte('\n')
	b.WriteString(formatMap("Total XD SUs charged, 2017:", totals, "XD SU"))

	// Shape checks against the published figure.
	order := make([]string, len(top3))
	for i, s := range top3 {
		order[i] = s.Group
	}
	half := func(res string, lo, hi int64) float64 {
		for _, s := range series {
			if s.Group != res {
				continue
			}
			var sum float64
			for _, p := range s.Points {
				if p.PeriodKey >= lo && p.PeriodKey <= hi {
					sum += p.Value
				}
			}
			return sum
		}
		return 0
	}
	checks := []Check{
		check("top-3 ranking is Comet > Stampede2 > Stampede",
			len(order) == 3 && order[0] == "comet" && order[1] == "stampede2" && order[2] == "stampede",
			"got %v", order),
		check("Stampede2 ramps up: H2 2017 > H1 2017",
			half("stampede2", 201707, 201712) > half("stampede2", 201701, 201706),
			"H1=%.0f H2=%.0f", half("stampede2", 201701, 201706), half("stampede2", 201707, 201712)),
		check("Stampede ramps down: H2 2017 < H1 2017",
			half("stampede", 201707, 201712) < half("stampede", 201701, 201706),
			"H1=%.0f H2=%.0f", half("stampede", 201701, 201706), half("stampede", 201707, 201712)),
		check("Comet roughly steady: |H2-H1| < 25% of H1",
			diffWithin(half("comet", 201701, 201706), half("comet", 201707, 201712), 0.25),
			"H1=%.0f H2=%.0f", half("comet", 201701, 201706), half("comet", 201707, 201712)),
	}
	return &Result{
		ID: "fig1", Title: "Top XSEDE resources 2017 by total XD SUs (Figure 1)",
		Text: b.String(), Charts: []*chart.Chart{ch}, Checks: checks,
	}, nil
}

func diffWithin(a, b, frac float64) bool {
	if a == 0 {
		return b == 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= frac*a
}
