// Command xdmod-ingestor loads staged or raw data into an instance's
// warehouse and runs aggregation — Open XDMoD's xdmod-ingestor
// equivalent. The warehouse persists as a snapshot file between runs.
//
// Usage:
//
//	xdmod-ingestor -config xdmod.json -db warehouse.snap \
//	    -slurm sacct.log -resource rush
//	xdmod-ingestor -config xdmod.json -db warehouse.snap \
//	    -staging records.json
//	xdmod-ingestor -config xdmod.json -db warehouse.snap \
//	    -storage-json usage.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/shredder"
)

func main() {
	var (
		configPath  = flag.String("config", "", "instance configuration JSON (required)")
		dbPath      = flag.String("db", "", "warehouse snapshot path to load/save (required)")
		slurmLog    = flag.String("slurm", "", "slurm accounting log to shred and ingest")
		pbsLog      = flag.String("pbs", "", "pbs accounting log to shred and ingest")
		resource    = flag.String("resource", "", "resource name for -slurm/-pbs")
		stagingJSON = flag.String("staging", "", "staging job records JSON (from xdmod-shredder)")
		storageJSON = flag.String("storage-json", "", "storage realm JSON document")
		metricsAddr = flag.String("metrics-listen", "", "serve GET /metrics (Prometheus text) on this address during the run")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()
	if *configPath == "" || *dbPath == "" {
		fatal(fmt.Errorf("-config and -db are required"))
	}
	obs.SetLogOutput(os.Stderr, *logJSON)
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", obs.ContentType)
			obs.Default.Render(w)
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		go http.Serve(ln, mux)
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}

	sat, err := loadSatellite(*configPath, *dbPath)
	if err != nil {
		fatal(err)
	}

	if *slurmLog != "" {
		ingestLog(sat, *slurmLog, "slurm", *resource)
	}
	if *pbsLog != "" {
		ingestLog(sat, *pbsLog, "pbs", *resource)
	}
	if *stagingJSON != "" {
		f, err := os.Open(*stagingJSON)
		if err != nil {
			fatal(err)
		}
		var recs []shredder.JobRecord
		if err := json.NewDecoder(f).Decode(&recs); err != nil {
			fatal(err)
		}
		f.Close()
		st, err := sat.Pipeline.IngestJobRecords(recs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("staging %s: %s\n", *stagingJSON, st)
	}
	if *storageJSON != "" {
		f, err := os.Open(*storageJSON)
		if err != nil {
			fatal(err)
		}
		st, err := sat.Pipeline.IngestStorageJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("storage %s: %s\n", *storageJSON, st)
	}

	if err := sat.DB.SaveFile(*dbPath); err != nil {
		fatal(err)
	}
	fmt.Printf("warehouse saved to %s\n", *dbPath)
}

// loadSatellite builds the satellite and, when the snapshot exists,
// restores its warehouse state and re-aggregates (Satellite.Recover
// without a WAL).
func loadSatellite(configPath, dbPath string) (*core.Satellite, error) {
	cfg, err := config.LoadFile(configPath)
	if err != nil {
		return nil, err
	}
	sat, err := core.NewSatellite(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sat.Recover("", dbPath); err != nil {
		return nil, err
	}
	return sat, nil
}

func ingestLog(sat *core.Satellite, path, format, resource string) {
	if resource == "" {
		fatal(fmt.Errorf("-resource is required with -%s", format))
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	st, err := sat.Pipeline.IngestJobLog(f, format, resource)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s %s: %s\n", format, path, st)
	for i, e := range st.Errors {
		if i >= 5 {
			fmt.Printf("  ... and %d more errors\n", len(st.Errors)-5)
			break
		}
		fmt.Printf("  %v\n", e)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdmod-ingestor:", err)
	os.Exit(1)
}
