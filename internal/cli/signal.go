package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context cancelled by SIGINT/SIGTERM, for attaching
// to core.Options.Context so Ctrl-C aborts an extraction cooperatively (the
// pipeline unwinds within one poll block or one phase) instead of leaving a
// half-printed analysis. A second signal kills the process the usual way:
// the handler is unregistered after the first, restoring default delivery.
// The returned stop releases the signal handler early.
func SignalContext(parent context.Context) (ctx context.Context, stop context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "(%v: cancelling)\n", sig)
			cancel()
		case <-ctx.Done():
		}
		signal.Stop(ch)
	}()
	return ctx, cancel
}
