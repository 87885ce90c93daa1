package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNet answers for every member in-process: a host set down fails at the
// transport (once hold, if set, is closed), any other answers 200 with its
// own host name as the body, and every request is counted by host.
type fakeNet struct {
	mu    sync.Mutex
	down  map[string]bool
	calls map[string]int
	hold  chan struct{}
}

func (f *fakeNet) RoundTrip(r *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls[r.URL.Host]++
	down, hold := f.down[r.URL.Host], f.hold
	f.mu.Unlock()
	if down {
		if hold != nil {
			<-hold
		}
		return nil, errors.New("connection refused")
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(r.URL.Host)), Request: r}, nil
}

func (f *fakeNet) setHold(hold chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hold = hold
}

func (f *fakeNet) setDown(host string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[host] = down
}

func (f *fakeNet) count(host string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[host]
}

// TestLivenessReadmission drives the member table on an injected clock
// through a gateway over fakeNet: a transport error takes a member out of
// rotation for readmitAfter, one routing decision per window tries it
// again, an answer readmits it at once, a failed trial re-arms the window,
// and /readyz is 503 exactly when every member is down.
func TestLivenessReadmission(t *testing.T) {
	fn := &fakeNet{down: map[string]bool{}, calls: map[string]int{}}
	g, err := NewGateway(GatewayConfig{
		Members:     []Member{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}},
		Replication: 2,
		Client:      &http.Client{Transport: fn},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var clock atomic.Int64
	g.live.now = func() time.Time { return time.Unix(0, clock.Load()) }
	advance := func(d time.Duration) { clock.Add(int64(d)) }
	aliveA := func() bool { return g.live.alive(g.ring.Members())[0] } // members are [a b]

	// A digest a owns: a is every read's first choice while it is up.
	var digest string
	for i := 0; digest == ""; i++ {
		if d := fmt.Sprintf("%064x", i); g.ring.Owner(d).Name == "a" {
			digest = d
		}
	}
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	read := func() string { return serve("/v1/traces/" + digest + "/structure").Body.String() }

	fn.setDown("a", true)
	if got := read(); got != "b" {
		t.Fatalf("read with a unreachable answered by %q, want b", got)
	}
	// Inside the window routing skips a and never contacts it.
	advance(readmitAfter - time.Millisecond)
	for i := 0; i < 5; i++ {
		if got := read(); got != "b" {
			t.Fatalf("read %d inside a's window answered by %q, want b", i, got)
		}
	}
	if n := fn.count("a"); n != 1 {
		t.Fatalf("a contacted %d times by the end of its window, want 1 (the failure)", n)
	}
	if aliveA() {
		t.Fatal("a reported alive inside its window")
	}

	// The window has passed: of K concurrent routing decisions exactly one
	// tries a. Its request to a is held open, so every other decision must
	// skip a and answer from b meanwhile; then the trial fails over too.
	advance(time.Millisecond)
	release := make(chan struct{})
	fn.setHold(release)
	const K = 16
	answered := make(chan string, K)
	for i := 0; i < K; i++ {
		go func() { answered <- read() }()
	}
	for i := 0; i < K-1; i++ {
		select {
		case got := <-answered:
			if got != "b" {
				close(release)
				t.Fatalf("concurrent read answered by %q, want b", got)
			}
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatalf("only %d of %d reads answered while a's trial was open: more than one decision tried a", i, K-1)
		}
	}
	close(release)
	if got := <-answered; got != "b" {
		t.Fatalf("the trial read answered by %q, want b", got)
	}
	fn.setHold(nil)
	if n := fn.count("a"); n != 2 {
		t.Fatalf("a contacted %d times after its window, want 2: one trial among %d reads", n, K)
	}
	// The failed trial re-armed the window.
	advance(readmitAfter - time.Millisecond)
	if got := read(); got != "b" || fn.count("a") != 2 {
		t.Fatalf("read inside the re-armed window answered by %q with a contacted %d times, want b and 2", got, fn.count("a"))
	}

	// a is back: the next trial's answer clears the mark at once, and
	// reads return to a.
	fn.setDown("a", false)
	advance(time.Millisecond)
	for i := 0; i < 3; i++ {
		if got := read(); got != "a" {
			t.Fatalf("read %d after a recovered answered by %q, want a", i, got)
		}
	}
	if !aliveA() {
		t.Fatal("a still reported down after it answered")
	}

	// /readyz is 503 exactly when every member is down.
	readyz := func() int { return serve("/readyz").Code }
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz = %d with every member up, want 200", code)
	}
	fn.setDown("a", true)
	read()
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz = %d with b still up, want 200", code)
	}
	fn.setDown("b", true)
	if code := serve("/v1/traces/" + digest + "/structure").Code; code != http.StatusBadGateway {
		t.Fatalf("read with every member unreachable = %d, want 502", code)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with every member down, want 503", code)
	}
	if v := g.reg.Snapshot().Gauges["cluster.members_alive"]; v != 0 {
		t.Fatalf("cluster.members_alive = %v with every member down, want 0", v)
	}
	advance(readmitAfter)
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz = %d once both windows passed, want 200: both members are due a trial", code)
	}
}
