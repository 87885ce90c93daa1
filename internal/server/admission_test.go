package server

// Admission-control, detached-leader and shutdown behavior of the serving
// layer. These tests substitute a gated extraction function (Config.extract)
// so saturation and slow extractions are deterministic, not timing-based.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// gatedExtract returns an extraction stub that signals `entered` each time
// a flight reaches it, then blocks until `gate` closes before delegating to
// the real pipeline. Calls while `passthrough` is true skip the gate.
func gatedExtract(entered chan struct{}, gate chan struct{}, passthrough *atomic.Bool) func(*trace.Trace, core.Options) (*core.Structure, error) {
	return func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
		if passthrough != nil && passthrough.Load() {
			return core.Extract(tr, opt)
		}
		entered <- struct{}{}
		select {
		case <-gate:
		case <-opt.Context.Done():
			return nil, opt.Context.Err()
		}
		return core.Extract(tr, opt)
	}
}

// TestAdmissionShedsWhenSaturated: with one extraction slot held, a request
// for a distinct (non-coalescing) key is shed with 429 and a Retry-After
// hint once the queue wait expires, and the shed is counted.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	cfg := Config{
		MaxConcurrentExtractions: 1,
		QueueWait:                30 * time.Millisecond,
	}
	cfg.extract = gatedExtract(entered, gate, nil)
	srv, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	holderDone := make(chan int, 1)
	go func() {
		status, _ := get(t, ts, "/v1/traces/"+digest+"/structure")
		holderDone <- status
	}()
	<-entered // the holder owns the only slot and is parked in extraction

	// A different options fingerprint cannot coalesce onto the holder's
	// flight, so it must queue for a slot — and be shed.
	resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure?infer=false")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	if got := srv.Registry().Counter("server.shed").Value(); got != 1 {
		t.Errorf("server.shed = %d, want 1", got)
	}
	if snap := srv.Registry().Snapshot(); snap.Histograms["server.queue_wait_ms"].Count < 1 {
		t.Error("server.queue_wait_ms histogram recorded nothing")
	}

	close(gate)
	if status := <-holderDone; status != http.StatusOK {
		t.Fatalf("slot holder finished with %d, want 200", status)
	}
}

// TestMemoryHitBypassesAdmission: a memory-cache hit is served even when
// every extraction slot is taken — hits do no extraction work.
func TestMemoryHitBypassesAdmission(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	var passthrough atomic.Bool
	passthrough.Store(true)
	cfg := Config{
		MaxConcurrentExtractions: 1,
		QueueWait:                30 * time.Millisecond,
	}
	cfg.extract = gatedExtract(entered, gate, &passthrough)
	srv, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	// Populate the cache for the default options key.
	if status, body := get(t, ts, "/v1/traces/"+digest+"/structure"); status != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", status, body)
	}

	// Saturate the only slot with a gated extraction for a different key.
	passthrough.Store(false)
	holderDone := make(chan int, 1)
	go func() {
		status, _ := get(t, ts, "/v1/traces/"+digest+"/structure?infer=false")
		holderDone <- status
	}()
	<-entered

	// The cached key must still answer instantly, whatever the request
	// wants resolved: /structure renders from its own memory peek, and the
	// other three go through resolve for the structure alone (/metrics), the
	// query index (windowed /steps) and the LOD pyramid (/lod) — both views
	// are built in place, outside any slot.
	for _, path := range []string{"/structure", "/metrics", "/steps?steps=0..3", "/lod?resolution=8"} {
		if status, body := get(t, ts, "/v1/traces/"+digest+path); status != http.StatusOK {
			t.Fatalf("memory hit on %s under saturation: status %d: %s", path, status, body)
		}
	}
	if got := srv.Registry().Counter("server.shed").Value(); got != 0 {
		t.Errorf("server.shed = %d, want 0", got)
	}

	close(gate)
	if status := <-holderDone; status != http.StatusOK {
		t.Fatalf("slot holder finished with %d, want 200", status)
	}
}

// TestRequestTimeoutDetachedLeader: a request whose timeout expires
// mid-extraction gets 504, but the flight keeps running, populates the
// cache, and a retry succeeds without a second extraction.
func TestRequestTimeoutDetachedLeader(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	var calls atomic.Int64
	cfg := Config{RequestTimeout: 50 * time.Millisecond}
	inner := gatedExtract(entered, gate, nil)
	cfg.extract = func(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
		calls.Add(1)
		return inner(tr, opt)
	}
	srv, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	status, _ := get(t, ts, "/v1/traces/"+digest+"/structure")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request status = %d, want 504", status)
	}
	<-entered // the flight survived its requester
	close(gate)

	deadline := time.Now().Add(10 * time.Second)
	for {
		status, body := get(t, ts, "/v1/traces/"+digest+"/structure")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry never succeeded; last status %d: %s", status, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("extraction ran %d times, want exactly 1 (retry must reuse the flight or the cache)", got)
	}
	if got := srv.Registry().Counter("cache.cancelled").Value(); got != 0 {
		t.Errorf("cache.cancelled = %d, want 0 (the flight itself was never cancelled)", got)
	}
}

// TestClientCancelReleasesSlot: a client that disconnects mid-extraction
// frees its admission slot within the handler's unwind, so the next request
// gets a slot instead of being shed.
func TestClientCancelReleasesSlot(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	cfg := Config{
		MaxConcurrentExtractions: 1,
		QueueWait:                30 * time.Millisecond,
	}
	cfg.extract = gatedExtract(entered, gate, nil)
	_, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/traces/"+digest+"/structure", nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-entered // slot taken, extraction parked
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled client request did not error")
	}

	// The slot must come free even though the detached flight still runs:
	// a request for a distinct key has to reach extraction, not shed.
	done := make(chan int, 1)
	go func() {
		status, _ := get(t, ts, "/v1/traces/"+digest+"/structure?infer=false")
		done <- status
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up request never got the released slot")
	}
	close(gate)
	if status := <-done; status != http.StatusOK {
		t.Fatalf("follow-up finished with %d, want 200", status)
	}
}

// TestShutdownDrains: Shutdown refuses new requests with 503, waits for
// in-flight handlers, drains the cache's flights, and returns nil on a
// clean drain.
func TestShutdownDrains(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	cfg := Config{}
	cfg.extract = gatedExtract(entered, gate, nil)
	srv, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	inflightDone := make(chan int, 1)
	go func() {
		status, _ := get(t, ts, "/v1/traces/"+digest+"/structure")
		inflightDone <- status
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(shutdownCtx) }()

	deadline := time.Now().Add(10 * time.Second)
	for !srv.closing.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never flipped the closing flag")
		}
		time.Sleep(time.Millisecond)
	}
	if status, _ := get(t, ts, "/v1/traces/"+digest+"/structure"); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", status)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight request drained", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if status := <-inflightDone; status != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v, want nil after clean drain", err)
	}
}

// TestUnlimitedAdmission: a negative MaxConcurrentExtractions disables the
// semaphore entirely — concurrent distinct keys all extract at once.
func TestUnlimitedAdmission(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	cfg := Config{MaxConcurrentExtractions: -1}
	cfg.extract = gatedExtract(entered, gate, nil)
	_, ts := newTestServer(t, cfg)
	digest := upload(t, ts, encodedJacobi(t, 0))

	const K = 3
	done := make(chan int, K)
	queries := []string{"", "?infer=false", "?reorder=false"}
	for i := 0; i < K; i++ {
		go func(q string) {
			status, _ := get(t, ts, fmt.Sprintf("/v1/traces/%s/structure%s", digest, q))
			done <- status
		}(queries[i])
	}
	for i := 0; i < K; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d distinct keys reached extraction", i, K)
		}
	}
	close(gate)
	for i := 0; i < K; i++ {
		if status := <-done; status != http.StatusOK {
			t.Fatalf("request %d finished with %d, want 200", i, status)
		}
	}
}
