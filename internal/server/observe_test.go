package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"charmtrace/internal/core"
	"charmtrace/internal/resultcache"
	"charmtrace/internal/telemetry"
	"charmtrace/internal/trace"
)

// syncBuffer is a goroutine-safe log sink for access-log assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes every JSON access-log line written so far.
func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// lineFor returns the most recent access-log line matching the route.
func (b *syncBuffer) lineFor(t *testing.T, route string) map[string]any {
	t.Helper()
	var found map[string]any
	for _, m := range b.lines(t) {
		if m["route"] == route {
			found = m
		}
	}
	if found == nil {
		t.Fatalf("no access-log line for route %q", route)
	}
	return found
}

// TestMetricsEndpointScrapeUnderLoad: /metrics must produce a document the
// strict parser accepts — including every registry family — while analysis
// requests are hammering the same registry.
func TestMetricsEndpointScrapeUnderLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir(), Parallelism: 2})
	digest := upload(t, ts, encodedJacobi(t, 0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
			t.Fatalf("Content-Type %q, want %q", ct, telemetry.PromContentType)
		}
		fams, err := telemetry.ParsePromText(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %d rejected by strict parser: %v", i, err)
		}
		for _, want := range []string{
			"server_requests_total", "server_inflight", "go_goroutines",
			"go_gc_cycles_total",
		} {
			if fams[want] == nil {
				t.Fatalf("scrape %d missing family %s", i, want)
			}
		}
	}
	close(stop)
	wg.Wait()

	// After load, the serving families exist and reconcile with the
	// registry the same exposition is derived from.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fams["server_requests_total"].Samples[0].Value < 1 {
		t.Fatal("server_requests_total never incremented")
	}
	if fams["cache_misses_total"] == nil || fams["server_latency_ms_structure"] == nil {
		t.Fatal("cache/latency families missing from exposition")
	}
	if srv.Registry() == nil {
		t.Fatal("registry detached")
	}
}

// blockingServerExtract substitutes Config.extract: it publishes progress
// through the cache-attached opt.Progress, then blocks until released.
type blockingServerExtract struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingServerExtract() *blockingServerExtract {
	return &blockingServerExtract{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingServerExtract) extract(tr *trace.Trace, opt core.Options) (*core.Structure, error) {
	if opt.Progress != nil {
		opt.Progress.SetStage("dependency-merge")
		opt.Progress.StartLoop(100)
		opt.Progress.Add(37)
	}
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return core.Extract(tr, core.Options{Parallelism: opt.Parallelism})
}

// TestDebugFlightsShowsLiveProgress: while an extraction is in flight,
// GET /debug/flights reports its digest, waiter count and the stage
// progress the pipeline published; afterwards the list is empty.
func TestDebugFlightsShowsLiveProgress(t *testing.T) {
	ext := newBlockingServerExtract()
	_, ts := newTestServer(t, Config{extract: ext.extract})
	digest := upload(t, ts, encodedJacobi(t, 0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-ext.entered

	var out struct {
		Flights []struct {
			Digest      string  `json:"digest"`
			Fingerprint string  `json:"fingerprint"`
			ElapsedMS   float64 `json:"elapsed_ms"`
			Waiters     int64   `json:"waiters"`
			Progress    struct {
				Stage   string `json:"stage"`
				Scanned int64  `json:"scanned"`
				Total   int64  `json:"total"`
			} `json:"progress"`
		} `json:"flights"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/debug/flights"), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Flights) != 1 {
		t.Fatalf("flights = %d, want 1", len(out.Flights))
	}
	f := out.Flights[0]
	if f.Digest != digest || f.Fingerprint == "" {
		t.Fatalf("flight identity wrong: %+v", f)
	}
	if f.Waiters != 1 {
		t.Errorf("waiters = %d, want 1", f.Waiters)
	}
	if f.Progress.Stage != "dependency-merge" || f.Progress.Scanned != 37 || f.Progress.Total != 100 {
		t.Errorf("progress = %+v, want dependency-merge 37/100", f.Progress)
	}

	close(ext.release)
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for {
		var after struct {
			Flights []json.RawMessage `json:"flights"`
		}
		if err := json.Unmarshal(mustGet(t, ts, "/debug/flights"), &after); err != nil {
			t.Fatal(err)
		}
		if len(after.Flights) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight still listed after completion")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRequestIDEchoAndGenerate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Inbound id is honored and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "abc-123" {
		t.Fatalf("echoed id %q, want abc-123", got)
	}
	// No inbound id: one is minted.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", got)
	}
	// A hostile id (control bytes) is replaced, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad\tid")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "bad\tid" || len(got) != 16 {
		t.Fatalf("hostile id echoed back: %q", got)
	}
}

// TestAccessLogSchema: one JSON line per request carrying the schema
// README documents — id, route, digest, cache outcome, status, latency,
// bytes — at the status-class level.
func TestAccessLogSchema(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, Config{
		DataDir:   t.TempDir(),
		AccessLog: slog.New(slog.NewJSONHandler(logBuf, nil)),
	})
	digest := upload(t, ts, encodedJacobi(t, 0))

	req, _ := http.NewRequest("GET", ts.URL+"/v1/traces/"+digest+"/structure", nil)
	req.Header.Set("X-Request-ID", "corr-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := logBuf.lineFor(t, "structure")
	if line["id"] != "corr-7" {
		t.Errorf("id = %v, want corr-7", line["id"])
	}
	if line["digest"] != digest {
		t.Errorf("digest = %v", line["digest"])
	}
	if line["cache"] != resultcache.OutcomeMiss {
		t.Errorf("cache = %v, want miss", line["cache"])
	}
	if line["status"] != float64(200) {
		t.Errorf("status = %v", line["status"])
	}
	if line["level"] != "INFO" {
		t.Errorf("level = %v", line["level"])
	}
	if v, ok := line["latency_ms"].(float64); !ok || v < 0 {
		t.Errorf("latency_ms = %v", line["latency_ms"])
	}
	if v, ok := line["bytes"].(float64); !ok || v <= 0 {
		t.Errorf("bytes = %v", line["bytes"])
	}

	// Second request: the memory hit shows up as cache=mem.
	resp, err = http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if line := logBuf.lineFor(t, "structure"); line["cache"] != resultcache.OutcomeMem {
		t.Errorf("cache = %v, want mem", line["cache"])
	}

	// A 404 logs at warn with no cache outcome.
	resp, err = http.Get(ts.URL + "/v1/traces/" + strings.Repeat("0", 64) + "/structure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line = logBuf.lineFor(t, "structure")
	if line["status"] != float64(404) || line["level"] != "WARN" {
		t.Errorf("404 line = %v", line)
	}
	if _, has := line["cache"]; has {
		t.Errorf("404 line carries a cache outcome: %v", line)
	}
}

// TestAccessLog429CarriesRetryAfter: a shed request's log line includes
// the Retry-After the client saw.
func TestAccessLog429CarriesRetryAfter(t *testing.T) {
	logBuf := &syncBuffer{}
	ext := newBlockingServerExtract()
	_, ts := newTestServer(t, Config{
		MaxConcurrentExtractions: 1,
		QueueWait:                20 * time.Millisecond,
		AccessLog:                slog.New(slog.NewJSONHandler(logBuf, nil)),
		extract:                  ext.extract,
	})
	digest := upload(t, ts, encodedJacobi(t, 0))

	holder := make(chan struct{})
	go func() {
		defer close(holder)
		resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-ext.entered

	resp, err := http.Get(ts.URL + "/v1/traces/" + digest + "/structure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	wantRetry := resp.Header.Get("Retry-After")
	if wantRetry == "" {
		t.Fatal("429 without Retry-After header")
	}

	var line map[string]any
	for _, m := range logBuf.lines(t) {
		if m["status"] == float64(429) {
			line = m
		}
	}
	if line == nil {
		t.Fatal("no 429 access-log line")
	}
	if line["retry_after"] != wantRetry {
		t.Errorf("retry_after = %v, want %q", line["retry_after"], wantRetry)
	}
	if line["level"] != "WARN" {
		t.Errorf("429 level = %v, want WARN", line["level"])
	}

	close(ext.release)
	<-holder
}

// TestStatsContentType pins the explicit Content-Type on both debug
// endpoints.
func TestStatsContentType(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/debug/stats", "/debug/flights"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s Content-Type %q", path, ct)
		}
	}
}

// TestObservabilityDoesNotChangeResponses: the PR-wide invariant — with
// access logging, request IDs and progress attached, analysis bytes are
// identical to a bare server's.
func TestObservabilityDoesNotChangeResponses(t *testing.T) {
	_, tsBare := newTestServer(t, Config{})
	_, tsObs := newTestServer(t, Config{
		AccessLog: slog.New(slog.NewJSONHandler(&syncBuffer{}, nil)),
	})
	body := encodedJacobi(t, 0)
	dA := upload(t, tsBare, body)
	dB := upload(t, tsObs, body)
	if dA != dB {
		t.Fatal("digest mismatch")
	}
	for _, path := range []string{"/structure", "/steps", "/metrics"} {
		a := mustGet(t, tsBare, "/v1/traces/"+dA+path)
		b := mustGet(t, tsObs, "/v1/traces/"+dB+path)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between bare and observed servers", path)
		}
	}
}
