// Command xdmod-hub runs an XDMoD federation hub: it accepts tight
// replication from registered satellite members, serves the unified
// REST API over the federation's combined data, and can load loose
// dumps shipped by batch members (paper §II).
//
// Usage:
//
//	xdmod-hub -config hub.json -listen :8080 -replication :7100 \
//	    -members siteA,siteB,siteC
//
// Loose dumps are loaded at startup with repeated -loose flags of the
// form instance=path.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/config"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
	"xdmodfed/internal/rest"
)

// looseFlags collects repeated -loose instance=path flags.
type looseFlags []string

func (l *looseFlags) String() string { return strings.Join(*l, ",") }
func (l *looseFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		configPath  = flag.String("config", "", "hub configuration JSON (required)")
		listen      = flag.String("listen", "127.0.0.1:8080", "REST API listen address")
		replication = flag.String("replication", "127.0.0.1:7100", "tight replication listen address")
		members     = flag.String("members", "", "comma-separated registered member instances")
		adminUser   = flag.String("admin-user", "", "bootstrap a local admin account")
		adminPass   = flag.String("admin-pass", "", "password for -admin-user")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
		loose       looseFlags
	)
	flag.Var(&loose, "loose", "load a loose dump: instance=path (repeatable)")
	flag.Parse()
	if *configPath == "" {
		fatal(fmt.Errorf("-config is required"))
	}
	obs.SetLogOutput(os.Stderr, *logJSON)
	cfg, err := config.LoadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	hub, err := core.NewHub(cfg)
	if err != nil {
		fatal(err)
	}
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			if err := hub.Register(m); err != nil {
				fatal(err)
			}
		}
	}
	if *adminUser != "" {
		err := hub.Auth.Vault().Create(auth.User{
			Username: *adminUser, Role: auth.RoleManager, DisplayName: "Federation Administrator",
		}, *adminPass)
		if err != nil {
			fatal(err)
		}
	}

	for _, spec := range loose {
		inst, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -loose %q, want instance=path", spec))
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		if err := hub.LoadLooseDump(inst, f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("loaded loose dump for %s from %s\n", inst, path)
	}

	repAddr, err := hub.Listen(*replication)
	if err != nil {
		fatal(err)
	}
	defer hub.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("xdmod-hub %q: REST on %s, replication on %s, %d members\n",
		cfg.Name, ln.Addr(), repAddr, len(hub.Members()))
	if err := rest.Serve(ctx, rest.NewHTTPServer(*listen, rest.NewHubServer(hub).Handler()), ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdmod-hub:", err)
	os.Exit(1)
}
