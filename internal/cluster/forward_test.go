package cluster_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"charmtrace/internal/cluster"
)

// stubMember is a fake charmd node for the failover-loop tests: it answers
// every proxied request the way its mode says and remembers what it saw.
type stubMember struct {
	name string
	ts   *httptest.Server

	mu      sync.Mutex
	mode    string // "ok", "unavailable" or "hang"
	bodies  []string
	expects []string // the Expect header of each request
	// entered is signalled when a hung request arrives, cancelled when its
	// context ends.
	entered, cancelled chan struct{}
}

func newStubMember(name, mode string) *stubMember {
	s := &stubMember{name: name, mode: mode, entered: make(chan struct{}, 1), cancelled: make(chan struct{}, 1)}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		s.bodies = append(s.bodies, string(body))
		s.expects = append(s.expects, r.Header.Get("Expect"))
		s.mu.Unlock()
		w.Header().Set("X-Charmd-Node", name)
		switch s.mode {
		case "unavailable":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"server shutting down"}`)
		case "hang":
			s.entered <- struct{}{}
			<-r.Context().Done()
			s.cancelled <- struct{}{}
		default:
			fmt.Fprintf(w, "%s saw %q", name, body)
		}
	}))
	return s
}

// seen returns the body of each request the member received.
func (s *stubMember) seen() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bodies...)
}

// sawExpect returns the Expect header of each request the member received.
func (s *stubMember) sawExpect() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.expects...)
}

// stubPair builds a gateway over two stub members and returns them in the
// ring's preference order for digest. A "down" member's listener is closed,
// so reaching it is a transport error.
func stubPair(t *testing.T, digest, firstMode, secondMode string) (gw *cluster.Gateway, gwTS *httptest.Server, first, second *stubMember) {
	t.Helper()
	a, b := newStubMember("a", "ok"), newStubMember("b", "ok")
	t.Cleanup(a.ts.Close)
	t.Cleanup(b.ts.Close)
	members := []cluster.Member{{Name: "a", URL: a.ts.URL}, {Name: "b", URL: b.ts.URL}}
	ring, err := cluster.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	first, second = a, b
	if ring.Owner(digest).Name == "b" {
		first, second = b, a
	}
	for _, st := range []struct {
		m    *stubMember
		mode string
	}{{first, firstMode}, {second, secondMode}} {
		st.m.mode = st.mode
		if st.mode == "down" {
			st.m.ts.Close()
		}
	}
	gw, err = cluster.NewGateway(cluster.GatewayConfig{
		Members:       members,
		Replication:   2,
		ProbeInterval: time.Hour, // liveness driven by request errors alone
	})
	if err != nil {
		t.Fatal(err)
	}
	gwTS = httptest.NewServer(gw)
	t.Cleanup(func() {
		gwTS.Close()
		gw.Close()
	})
	return gw, gwTS, first, second
}

// TestGatewayFailoverLoop pins the one outbound path against stub members:
// what each kind of upstream failure does to routing, liveness and the
// counters, and that a buffered POST body reaches the next candidate intact.
func TestGatewayFailoverLoop(t *testing.T) {
	const digest = "feedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeed"
	const spec = `{"select":"structure","limit":3}`
	for _, tc := range []struct {
		name                 string
		first, second        string
		method, path, body   string
		wantStatus           int
		wantBody             string // for 200s, with %s = the second member's name
		firstAlive           bool
		failovers, exhausted int64
	}{
		{name: "transport error marks dead and fails over", first: "down", second: "ok",
			method: "GET", path: "/structure", wantStatus: 200, wantBody: `%s saw ""`, firstAlive: false, failovers: 1},
		{name: "503 fails over, member stays alive", first: "unavailable", second: "ok",
			method: "GET", path: "/structure", wantStatus: 200, wantBody: `%s saw ""`, firstAlive: true, failovers: 1},
		{name: "every candidate failing is a 502", first: "down", second: "unavailable",
			method: "GET", path: "/structure", wantStatus: 502, firstAlive: false, failovers: 2, exhausted: 1},
		{name: "POST body is resent intact", first: "unavailable", second: "ok",
			method: "POST", path: "/query", body: spec, wantStatus: 200, wantBody: `%s saw ` + fmt.Sprintf("%q", spec), firstAlive: true, failovers: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, gwTS, first, second := stubPair(t, digest, tc.first, tc.second)
			req, err := http.NewRequest(tc.method, gwTS.URL+"/v1/traces/"+digest+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				// What curl adds to a large upload. The gateway holds the
				// whole body by now, so the expectation stops with it.
				req.Header.Set("Expect", "100-continue")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
			if tc.wantStatus == http.StatusOK {
				if want := fmt.Sprintf(tc.wantBody, second.name); string(data) != want {
					t.Errorf("body %q, want %q", data, want)
				}
				if got := resp.Header.Get("X-Charmd-Node"); got != second.name {
					t.Errorf("answered by %q, want the second candidate %q", got, second.name)
				}
			}
			if tc.first == "unavailable" {
				if got := first.seen(); len(got) != 1 || got[0] != tc.body {
					t.Errorf("first candidate saw bodies %q, want one copy of %q", got, tc.body)
				}
			}
			for _, m := range []*stubMember{first, second} {
				for _, e := range m.sawExpect() {
					if e != "" {
						t.Errorf("%s was sent Expect: %s", m.name, e)
					}
				}
			}
			if got := gw.Health().Alive(first.name); got != tc.firstAlive {
				t.Errorf("first candidate alive = %v, want %v", got, tc.firstAlive)
			}
			if !gw.Health().Alive(second.name) {
				t.Errorf("second candidate marked dead; it answered")
			}
			reg := gw.Registry()
			if n := counterOf(reg, "gateway.failovers"); n != tc.failovers {
				t.Errorf("gateway.failovers = %d, want %d", n, tc.failovers)
			}
			if n := counterOf(reg, "gateway.exhausted"); n != tc.exhausted {
				t.Errorf("gateway.exhausted = %d, want %d", n, tc.exhausted)
			}
		})
	}
}

// TestGatewayClientDisconnectCancelsUpstream: the upstream request runs on
// the inbound request's context, so a client that goes away mid-read stops
// the member's work, and the gateway neither fails over nor blames the
// member.
func TestGatewayClientDisconnectCancelsUpstream(t *testing.T) {
	const digest = "feedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeedfeed"
	gw, gwTS, first, second := stubPair(t, digest, "hang", "ok")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gwTS.URL+"/v1/traces/"+digest+"/structure", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-first.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the first candidate")
	}
	cancel()
	select {
	case <-first.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the upstream request's context was never cancelled")
	}
	if err := <-done; err == nil {
		t.Error("the cancelled client request reported success")
	}
	gwTS.Close() // returns once the gateway's handler has
	if got := second.seen(); len(got) != 0 {
		t.Errorf("gateway failed over to the second candidate after the client left: %q", got)
	}
	if !gw.Health().Alive(first.name) {
		t.Error("first candidate marked dead for the client's disconnect")
	}
	if n := counterOf(gw.Registry(), "gateway.failovers"); n != 0 {
		t.Errorf("gateway.failovers = %d, want 0", n)
	}
}
