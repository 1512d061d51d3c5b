// Command shardserver is the remote-shard daemon: it hosts ball-index
// shards behind the wire protocol (see internal/transport) so a client's
// ShardedIndex can have each shard's rows counted on another machine.
//
// Usage:
//
//	shardserver -addr :7601
//	shardserver -addr :7601 -admin 127.0.0.1:7699
//
// With -admin a second listener serves the process metrics
// (Prometheus text on /metrics: fan-out latency, cache and replica
// counters) and net/http/pprof under /debug/pprof/. Bind it to a
// loopback or otherwise access-controlled address. Traced client
// sessions are announced on the log with their
// 128-bit trace ID, so one query can be followed from the client's
// span tree into every shard server it touched.
//
// The server is stateless: each client connection ships the prepared
// global point set in its handshake and the server builds the requested
// shard from it, so every shard answers from exactly the coordinates the
// client prepared.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: listeners close
// first, in-flight requests run to completion up to -grace, then
// remaining connections are cut.
//
// Trust boundary: a shard server holds raw data points. The differential
// privacy guarantee applies to the released outputs of the client-side
// pipeline, not to intra-cluster traffic or server memory — deploy shard
// servers inside the same trust domain as the data and protect the links
// (TLS/mTLS tunnels, private networks). See the "Remote shards" section
// of the package documentation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"privcluster/internal/obs"
	"privcluster/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shardserver:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored for tests: it serves until ctx is
// cancelled, then shuts down gracefully. The actual listening address is
// printed to out (essential with -addr :0).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shardserver", flag.ContinueOnError)
	addr := fs.String("addr", ":7601", "TCP address to listen on")
	workers := fs.Int("workers", 0, "worker-pool bound for the hosted shards' count passes (0 = GOMAXPROCS)")
	admin := fs.String("admin", "", "admin TCP address serving /metrics and /debug/pprof/ (empty = disabled; bind to loopback)")
	grace := fs.Duration("grace", 10*time.Second, "graceful-shutdown window for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "shardserver: listening on %s\n", l.Addr())

	srv := transport.NewServer(transport.ServerOptions{
		Workers: *workers,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
		// Traced sessions (clients propagating a trace ID) are announced
		// through the structured logger so an operator can grep the
		// client's trace ID across machines.
		Log: obs.NewLogger(out, slog.LevelInfo, 0),
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	if *admin != "" {
		amux := http.NewServeMux()
		amux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			obs.Default.WriteText(w)
		})
		amux.HandleFunc("/debug/pprof/", pprof.Index)
		amux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		amux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		amux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		amux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			l.Close()
			return fmt.Errorf("admin listen %s: %w", *admin, err)
		}
		defer aln.Close()
		fmt.Fprintf(out, "shardserver: admin (metrics, pprof) on %s\n", aln.Addr())
		go http.Serve(aln, amux)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "shardserver: shutting down (grace %s)\n", *grace)
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(out, "shardserver: forced shutdown: %v\n", err)
	}
	return nil
}
