// Command charm-gateway fronts a fleet of charmd nodes with a
// consistent-hash router: every trace digest maps to R ring successors, so
// uploads land on the nodes that will serve them, repeat reads of one
// trace hit the same warm caches, and a node loss moves only ~1/N of the
// keyspace. A dead or draining node is failed over in ring order; an
// uploaded trace is copied to the rest of its replica set in the
// background, and results move only when a node pulls one from a ring
// sibling (peer fill).
//
// Usage:
//
//	charm-gateway -addr :8090 -peers n0=http://h0:8080,n1=http://h1:8080,n2=http://h2:8080
//
//	curl -sS --data-binary @jacobi.trace localhost:8090/v1/traces
//	curl -sS localhost:8090/v1/traces/<digest>/structure
//	curl -sS localhost:8090/cluster
//	curl -sS localhost:8090/nodes/n1/debug/stats
//
// The member list is static (-peers). Liveness is learned from the requests
// the gateway proxies: a node it cannot reach is skipped for two seconds,
// then tried again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"charmtrace/internal/cli"
	"charmtrace/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	peers := flag.String("peers", "", "cluster member list as name=url,name=url")
	replication := flag.Int("replication", 0, "replicas per trace digest, R (0 = 2; clamped to the member count)")
	maxUpload := flag.Int64("max-upload", 256<<20, "maximum trace upload size in bytes")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	logging := cli.NewLogging("json", flag.CommandLine)
	flag.Parse()

	accessLog, err := logging.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charm-gateway:", err)
		os.Exit(1)
	}

	members, err := cluster.ParsePeers(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charm-gateway:", err)
		os.Exit(1)
	}

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Members:        members,
		Replication:    *replication,
		MaxUploadBytes: *maxUpload,
		AccessLog:      accessLog,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "charm-gateway:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("charm-gateway: serving on %s (%d members, R=%d)\n", *addr, len(members), gw.Replication())

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "charm-gateway: signal received, draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "charm-gateway: shutdown:", err)
		}
		gw.Close()
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "charm-gateway:", err)
			os.Exit(1)
		}
	}
}
