package report

import (
	"fmt"
	"strings"
)

// Markdown renders a full EXPERIMENTS.md document from experiment
// results: the reproduction preamble, the paper-claim-vs-measured
// table, and every regenerated artifact verbatim. xdmod-report
// -markdown writes this, so the committed EXPERIMENTS.md is always
// regenerable from one command.
func Markdown(results []*Result, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, `# EXPERIMENTS — paper vs measured

Every table and figure of "Federating XDMoD to Monitor Affiliated
Computing Resources" (HPCMASPA/CLUSTER 2018), regenerated by this
repository. Reproduce everything below with:

`+"```sh\ngo run ./cmd/xdmod-report -experiment all -scale %d -seed %d\n```"+`

(`+"`go test ./internal/report`"+` runs each artifact's shape checks as TestFig1 ... TestFig7
and TestTable1, and this file itself regenerates via `+"`go run ./cmd/xdmod-report -markdown EXPERIMENTS.md -scale %d -seed %d`"+`)

The paper's charts are drawn over proprietary center data (XSEDE
accounting, CCR Isilon/GPFS storage, the CCR research cloud). Per the
reproduction's substitution rule, seeded synthetic traces with the
published *shape* are ingested through the complete production
pipeline (shredder -> warehouse -> replication -> aggregation -> chart).
Absolute values are therefore not comparable; the qualitative claims
are, and each is machine-checked ("Shape checks" below`,
		opts.Scale, opts.Seed, opts.Scale, opts.Seed)

	total, passed := 0, 0
	for _, r := range results {
		for _, c := range r.Checks {
			total++
			if c.Pass {
				passed++
			}
		}
	}
	fmt.Fprintf(&b, " — %d/%d PASS).\n\n", passed, total)

	b.WriteString(`## Paper claim vs measured shape

| Artifact | Paper shows | Measured here | Holds? |
|---|---|---|---|
`)
	for _, r := range results {
		claim, ok := paperClaims[r.ID]
		if !ok {
			continue
		}
		status := "yes"
		if !r.Passed() {
			status = "**NO**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", claim.artifact, claim.paper, summarizeChecks(r), status)
	}

	b.WriteString(`
## Systems benchmarks

The production concerns the paper implies but does not measure —
ingest, replication, hub apply and aggregation, chart queries and the
query cache — are measured by the pipeline benchmark under ` + "`bench/`" + `
(` + "`make bench`" + `; workloads and metrics in bench/README.md). DESIGN.md maps
each EXP-B question to its metric, or to the open item that will
measure it.

## Full regenerated output

` + "```\n")
	for _, r := range results {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}

// paperClaims pairs each artifact with the published claim it checks.
var paperClaims = map[string]struct{ artifact, paper string }{
	"fig1":   {"Fig. 1", "Top-3 XSEDE resources 2017 by total XD SUs: Comet > Stampede2 > Stampede; Stampede2 ramps up from mid-2017, Stampede ramps down to decommissioning"},
	"fig2":   {"Fig. 2", "Fan-in topology: satellites X,Y,Z (resources L,M,N) replicate into one hub with a combined view"},
	"fig3":   {"Fig. 3", "Ingestion → replication → hub aggregation; selected resources can be withheld from federation"},
	"table1": {"Table I", "Instances A and B aggregate wall time under different local levels; the hub re-bins all raw federation data under its own levels, losing nothing"},
	"fig4":   {"Fig. 4", "Group R signs in with local XDMoD passwords, group S via SSO, on the same instance"},
	"fig5":   {"Fig. 5", "Mixed authentication across a federation; hub can act as identity provider"},
	"fig6":   {"Fig. 6", "CCR file count and physical usage grow through 2017 (monthly)"},
	"fig7":   {"Fig. 7", "Avg core hours per VM by memory bin (<1, 1-2, 2-4, 4-8 GB), 2017"},
}

// summarizeChecks compresses a result's checks into one cell.
func summarizeChecks(r *Result) string {
	var parts []string
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		parts = append(parts, fmt.Sprintf("%s: %s", c.Name, status))
	}
	return strings.Join(parts, "; ")
}
