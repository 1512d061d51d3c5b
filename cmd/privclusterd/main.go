// Command privclusterd is the serving daemon: an HTTP/JSON front end
// over prepared privcluster datasets, with every query's (ε, δ) cost
// admitted through a durable per-principal budget ledger that survives
// restarts and crashes (see internal/ledger). A budget refused once
// stays refused — restarting the daemon mints no fresh budget, and a
// second daemon pointed at the same ledger directory refuses to start,
// so two processes can never jointly over-spend.
//
// Usage:
//
//	privclusterd -config config.json
//
// The configuration is JSON:
//
//	{
//	  "listen": ":7610",
//	  "ledger_dir": "/var/lib/privclusterd/ledger",
//	  "datasets": [
//	    {"name": "points", "csv": "points.csv", "grid": 1024}
//	  ],
//	  "principals": [
//	    {"name": "alice", "api_key": "…", "epsilon": 9, "delta": 0.11}
//	  ]
//	}
//
// Endpoints (POST bodies and responses are JSON; authenticate with
// "Authorization: Bearer <api_key>" or "X-API-Key: <api_key>"):
//
//	POST /v1/query/cluster   {"dataset","t","epsilon","delta",...}  → one cluster
//	POST /v1/query/kcover    {"dataset","k","t",...}                → k clusters
//	POST /v1/query/interior  {"dataset","inner_n",...}              → interior point
//	POST /v1/query/batch     {"dataset","queries":[...]}            → per-query results
//	GET  /v1/budget                                                 → caller's durable balance
//	GET  /metrics                                                   → Prometheus text metrics
//	GET  /v1/trace/{id}                                             → retained span tree of a recent query
//	GET  /healthz                                                   → liveness
//
// Every query runs under a trace whose ID is returned in the
// X-Trace-Id response header; GET /v1/trace/<that id> returns the
// query's span tree (stage names, durations, operation counts — never
// data values). With "admin_listen" set in the config, a second
// listener serves net/http/pprof under /debug/pprof/.
//
// Query errors are typed: {"error":{"code":"budget_exhausted",...}}
// with HTTP 429 for refusals (the body carries the full accounting),
// 422 infeasible, 504 deadline, 401 unauthorized, 404 unknown_dataset,
// 400 bad_request.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// closes first, in-flight queries run to completion up to -grace, then
// the ledger lock is released for a successor.
//
// Trust boundary: the daemon holds raw data points; the differential
// privacy guarantee covers the released outputs. Deploy it inside the
// data's trust domain and protect the links. See the "Serving and
// durable budgets" section of the package documentation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"privcluster/internal/daemon"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "privclusterd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: it serves until ctx is
// cancelled, then drains gracefully. The actual listening address is
// printed to out (essential with "listen": ":0").
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("privclusterd", flag.ContinueOnError)
	configPath := fs.String("config", "", "JSON configuration file (required)")
	listen := fs.String("listen", "", "override the config's listen address")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown window for in-flight queries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("-config is required")
	}
	cfg, err := daemon.LoadConfig(*configPath)
	if err != nil {
		return err
	}
	if *listen != "" {
		cfg.Listen = *listen
	}

	srv, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(out, "privclusterd: serving %d datasets to %d principals on %s\n",
		len(cfg.Datasets), len(cfg.Principals), srv.Addr())
	if a := srv.AdminAddr(); a != "" {
		fmt.Fprintf(out, "privclusterd: admin (pprof) on %s\n", a)
	}

	<-ctx.Done()
	fmt.Fprintf(out, "privclusterd: shutting down (grace %s)\n", *grace)
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(out, "privclusterd: forced shutdown: %v\n", err)
	}
	return nil
}
