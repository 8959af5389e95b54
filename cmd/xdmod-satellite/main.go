// Command xdmod-satellite runs one XDMoD satellite instance: it
// restores its warehouse snapshot, serves the REST API, and starts
// tight-federation replication to every hub route in its configuration
// (paper Fig. 2: the satellite side of a federation).
//
// Usage:
//
//	xdmod-satellite -config xdmod.json -db warehouse.snap -listen :8080
//
// With -wal the warehouse replays its WAL on startup and appends to it
// while running; once the WAL replays anything it is the record, and
// -db is not restored over it (core.Satellite.Recover).
//
// An admin account can be bootstrapped with -admin-user/-admin-pass.
// The process exits on SIGINT/SIGTERM, saving the warehouse snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/rest"
)

func main() {
	var (
		configPath = flag.String("config", "", "instance configuration JSON (required)")
		dbPath     = flag.String("db", "", "warehouse snapshot path to load/save (optional)")
		listen     = flag.String("listen", "127.0.0.1:8080", "REST API listen address")
		adminUser  = flag.String("admin-user", "", "bootstrap a local admin account")
		adminPass  = flag.String("admin-pass", "", "password for -admin-user")
		walPath    = flag.String("wal", "", "durable binlog path: replayed on startup, appended while running")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()
	if *configPath == "" {
		fatal(fmt.Errorf("-config is required"))
	}
	obs.SetLogOutput(os.Stderr, *logJSON)
	cfg, err := config.LoadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	sat, err := core.NewSatellite(cfg)
	if err != nil {
		fatal(err)
	}
	wal, err := sat.Recover(*walPath, *dbPath)
	if err != nil {
		fatal(err)
	}
	if wal != nil {
		defer wal.Close()
	}
	if *adminUser != "" {
		err := sat.Auth.Vault().Create(auth.User{
			Username: *adminUser, Role: auth.RoleManager, DisplayName: "Administrator",
		}, *adminPass)
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := sat.StartFederation(ctx); err != nil {
		fatal(err)
	}
	defer sat.StopFederation()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("xdmod-satellite %q serving on %s (version %s, %d hub routes)\n",
		cfg.Name, ln.Addr(), cfg.Version, len(cfg.Hubs))
	// Serve returns once the requests in flight at shutdown have
	// finished, so the snapshot holds every write they acknowledged.
	serveErr := rest.Serve(ctx, rest.NewHTTPServer(*listen, rest.NewSatelliteServer(sat).Handler()), ln)
	if *dbPath != "" {
		if err := sat.DB.SaveFile(*dbPath); err != nil {
			fatal(err)
		}
		fmt.Printf("warehouse saved to %s\n", *dbPath)
	}
	if serveErr != nil {
		fatal(serveErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdmod-satellite:", err)
	os.Exit(1)
}
