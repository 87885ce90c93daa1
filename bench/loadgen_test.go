package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers at once, except that request number stallAt (counted
// from 1; 0 = never) holds a server-wide lock for 200ms, so everything that
// arrives meanwhile waits behind it.
func stallServer(stallAt int64) *httptest.Server {
	var n atomic.Int64
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == stallAt {
			time.Sleep(200 * time.Millisecond)
		}
		mu.Unlock()
	}))
}

func openLoopAgainst(t *testing.T, srv *httptest.Server) phaseResult {
	t.Helper()
	const n, gap = 400, 2 * time.Millisecond // 500 requests/s for 0.8s
	due := make([]time.Duration, n)
	ops := make([]op, n)
	for i := range ops {
		due[i] = time.Duration(i) * gap
		ops[i] = func(c *client) bool { return c.send("stub", "GET", "/", nil, nil).status == http.StatusOK }
	}
	clients := newClients(K.Workers, srv.URL, newVerdicts(0), nil)
	res := runOpen(context.Background(), clients, ops, due, n*gap, 4, func() float64 { return 0 })
	if len(res.ops) != n {
		t.Fatalf("sent %d of %d scheduled ops", len(res.ops), n)
	}
	return res
}

func TestOpenLoopChargesAStallToEveryOpDueMeanwhile(t *testing.T) {
	healthy := stallServer(0)
	defer healthy.Close()
	res := openLoopAgainst(t, healthy)
	if late := percentile(res.lateness, 99); late > 25 {
		t.Errorf("against a healthy server the generator ran %.1fms late at p99; it cannot hold its schedule", late)
	}

	stalled := stallServer(100)
	defer stalled.Close()
	res = openLoopAgainst(t, stalled)
	var fromDue, fromSend []float64
	for _, s := range res.ops {
		fromDue = append(fromDue, s.latencyMS())
		fromSend = append(fromSend, float64(s.end-s.start)/1e6)
	}
	// A 200ms stall at 500/s leaves ~100 ops waiting; counted from their
	// due times a quarter of the run saw it, so p95 must carry it. Counted
	// from send time only the ops in flight when it hit would.
	if p95 := percentile(fromDue, 95); p95 < 60 {
		t.Errorf("p95 from due time is %.1fms; the 200ms stall's backlog is missing", p95)
	}
	if p95 := percentile(fromSend, 95); p95 > 40 {
		t.Errorf("p95 from send time is %.1fms; expected the backlog to be invisible there", p95)
	}
	slow := 0
	for _, w := range res.windowsOf() {
		if w.P95ms > 60 {
			slow++
		}
	}
	if slow == 0 || slow == res.windows {
		t.Errorf("%d of %d windows saw the stall; it should stand out in the windows it hit", slow, res.windows)
	}
}

func TestClosedLoopWindowsAddUp(t *testing.T) {
	srv := stallServer(0)
	defer srv.Close()
	clients := newClients(K.Workers, srv.URL, newVerdicts(0), nil)
	cpu := 0.0
	res := runClosed(context.Background(), clients, func(int) op {
		return func(c *client) bool { return c.send("stub", "GET", "/", nil, nil).status == http.StatusOK }
	}, 300*time.Millisecond, 3, func() float64 { cpu += 10; return cpu })
	wins := res.windowsOf()
	total := 0
	for _, w := range wins {
		total += w.OK
		if w.CPUms != 10 {
			t.Errorf("window CPU = %v, want the 10ms the stub clock advances per reading", w.CPUms)
		}
	}
	if total != len(res.ops) || total == 0 {
		t.Errorf("windows hold %d ops, the phase ran %d", total, len(res.ops))
	}
	if len(res.reqs) != len(res.ops) {
		t.Errorf("%d requests recorded for %d single-request ops", len(res.reqs), len(res.ops))
	}
}
