// Command xdmod-setup generates validated instance configuration — the
// role of Open XDMoD's setup assistant: "we have developed tools to
// assist academic or industrial centers in XDMoD's configuration, so
// that departmental hierarchy, resource information, user types and
// access, and other settings reflect the host institution and its
// computing resources" (paper §I-C).
//
// Usage:
//
//	xdmod-setup -name ccr \
//	    -resource rush:hpc:1.0 -resource lakeeffect:cloud \
//	    -hub hub.example.org:7100 -mode tight \
//	    -out xdmod.json -hierarchy-out hierarchy.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/hierarchy"
)

type resourceFlags []string

func (r *resourceFlags) String() string { return strings.Join(*r, ",") }
func (r *resourceFlags) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var (
		name         = flag.String("name", "", "instance name (required)")
		hubAddr      = flag.String("hub", "", "federation hub replication address for this satellite")
		mode         = flag.String("mode", "tight", "federation mode: tight or loose")
		exclude      = flag.String("exclude-resources", "", "comma-separated resources withheld from federation")
		realms       = flag.String("realms", "", "comma-separated realms to federate (default: Jobs)")
		out          = flag.String("out", "xdmod.json", "output configuration path")
		hierarchyOut = flag.String("hierarchy-out", "", "also write a hierarchy skeleton to this path")
		wallLevels   = flag.String("wall-levels", "hub", "wall-time aggregation levels: a, b, or hub (Table I)")
		resources    resourceFlags
	)
	flag.Var(&resources, "resource", "resource as name:type[:su_factor] (repeatable; type hpc|cloud|storage)")
	flag.Parse()

	if *name == "" {
		fatal(fmt.Errorf("-name is required"))
	}
	cfg := config.InstanceConfig{Name: *name, Version: core.Version}
	switch *wallLevels {
	case "a":
		cfg.AggregationLevels = append(cfg.AggregationLevels, config.InstanceAWallTime())
	case "b":
		cfg.AggregationLevels = append(cfg.AggregationLevels, config.InstanceBWallTime())
	case "hub":
		cfg.AggregationLevels = append(cfg.AggregationLevels, config.HubWallTime())
	default:
		fatal(fmt.Errorf("-wall-levels must be a, b, or hub"))
	}
	cfg.AggregationLevels = append(cfg.AggregationLevels, config.DefaultJobSize(), config.CloudVMMemory())

	for _, spec := range resources {
		rc, err := parseResource(spec)
		if err != nil {
			fatal(err)
		}
		cfg.Resources = append(cfg.Resources, rc)
	}

	if *hubAddr != "" {
		route := config.HubRoute{HubAddr: *hubAddr, Mode: *mode}
		if *exclude != "" {
			route.ExcludeResources = splitList(*exclude)
		}
		if *realms != "" {
			route.IncludeRealms = splitList(*realms)
		}
		cfg.Hubs = append(cfg.Hubs, route)
	}

	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if err := cfg.SaveFile(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d resources, %d hub routes)\n", *out, len(cfg.Resources), len(cfg.Hubs))

	if *hierarchyOut != "" {
		h, err := hierarchy.New(hierarchy.Config{
			Levels: hierarchy.DefaultLevels(),
			Nodes: []hierarchy.NodeConfig{
				{Name: "ExampleCollege", Level: "Decanal Unit"},
				{Name: "ExampleDepartment", Level: "Department", Parent: "ExampleCollege"},
				{Name: "example-lab", Level: "PI Group", Parent: "ExampleDepartment"},
			},
			Assignments: map[string]string{"example-pi": "example-lab"},
		})
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*hierarchyOut)
		if err != nil {
			fatal(err)
		}
		if err := h.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (edit to reflect your institution)\n", *hierarchyOut)
	}
}

func parseResource(spec string) (config.ResourceConfig, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return config.ResourceConfig{}, fmt.Errorf("resource %q: want name:type[:su_factor]", spec)
	}
	rc := config.ResourceConfig{Name: parts[0], Type: parts[1]}
	if len(parts) == 3 {
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return rc, fmt.Errorf("resource %q: bad su_factor: %v", spec, err)
		}
		rc.SUFactor = f
	}
	return rc, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdmod-setup:", err)
	os.Exit(1)
}
