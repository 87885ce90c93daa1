// Command charmd is the long-running trace-analysis service: upload Charm++
// or message-passing traces once, then query recovered logical structure,
// per-chare metrics and structure diffs interactively. Every analysis
// response is served through a content-addressed result cache (memory LRU +
// on-disk store + request coalescing), so repeated queries never re-run the
// extraction pipeline and results survive restarts.
//
// Usage:
//
//	charmd -addr :8080 -data-dir .charmd-cache
//
//	curl -sS --data-binary @jacobi.trace localhost:8080/v1/traces
//	curl -sS localhost:8080/v1/traces/<digest>/structure
//	curl -sS localhost:8080/v1/traces/<digest>/metrics
//	curl -sS 'localhost:8080/v1/structdiff?a=<d1>&b=<d2>'
//	curl -sS localhost:8080/debug/stats
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"charmtrace/internal/cli"
	"charmtrace/internal/cluster"
	"charmtrace/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", ".charmd-cache", "persistent state: uploaded traces and the on-disk result cache ('' = memory only)")
	memEntries := flag.Int("mem-entries", 0, "in-memory result-cache entries (0 = default, negative = disable)")
	maxUpload := flag.Int64("max-upload", 256<<20, "maximum trace upload size in bytes")
	reqTimeout := flag.Duration("request-timeout", 60*time.Second, "per-request analysis timeout")
	parallelism := flag.Int("parallelism", 0, "extraction worker count (0 = all cores; responses are identical at any value)")
	maxExtractions := flag.Int("max-extractions", 0, "concurrent extraction slots before load shedding (0 = GOMAXPROCS, negative = unlimited)")
	queueWait := flag.Duration("queue-wait", time.Second, "how long a request queues for an extraction slot before a 429 + Retry-After")
	maxResultBytes := flag.Int64("max-result-bytes", 0, "on-disk result cache bound in bytes; least-recently-modified entries are GCed past it (0 = unbounded)")
	nodeName := flag.String("node-name", "", "this node's cluster member name (labels metrics and logs; required with -peers)")
	peers := flag.String("peers", "", "cluster member list as name=url,name=url (must include -node-name; enables peer cache fill)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	logging := cli.NewLogging("json", flag.CommandLine)
	tele := cli.NewProfiling("charmd", flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "charmd:", err)
		os.Exit(1)
	}
	accessLog, err := logging.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charmd:", err)
		os.Exit(1)
	}

	cfg := server.Config{
		DataDir:                  *dataDir,
		MaxMemEntries:            *memEntries,
		MaxUploadBytes:           *maxUpload,
		RequestTimeout:           *reqTimeout,
		Parallelism:              *parallelism,
		MaxConcurrentExtractions: *maxExtractions,
		QueueWait:                *queueWait,
		MaxResultBytes:           *maxResultBytes,
		AccessLog:                accessLog,
		NodeName:                 *nodeName,
	}
	// The peer client is built after the server so its counters land in the
	// server's registry; the config closures bind late, and nothing calls
	// them until the listener below starts accepting requests.
	var pc *cluster.Peers
	clustered := *peers != ""
	if clustered {
		cfg.PeerFetch = func(ctx context.Context, traceDigest, key string) (io.ReadCloser, error) {
			return pc.FetchResult(ctx, traceDigest, key)
		}
		cfg.TraceFetch = func(ctx context.Context, digest string) (io.ReadCloser, error) {
			return pc.FetchTrace(ctx, digest)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charmd:", err)
		os.Exit(1)
	}
	if clustered {
		members, err := cluster.ParsePeers(*peers)
		if err == nil {
			pc, err = cluster.NewPeers(cluster.PeersConfig{
				Self:    *nodeName,
				Members: members,
				Metrics: srv.Registry(),
			})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "charmd:", err)
			os.Exit(1)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("charmd: serving on %s (data dir %q, parallelism %d)\n", *addr, *dataDir, *parallelism)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "charmd: signal received, draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "charmd: shutdown:", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "charmd: drain:", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "charmd:", err)
			os.Exit(1)
		}
	}
	if err := tele.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "charmd:", err)
		os.Exit(1)
	}
}
