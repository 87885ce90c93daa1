package cluster

import (
	"context"
	"sync"
	"time"

	"charmtrace/internal/telemetry"
)

// readmitAfter is how long a member that failed a request stays out of
// rotation before a routing decision tries it again, so a member that
// recovers is back in rotation within this long.
const readmitAfter = 2 * time.Second

// liveness is the gateway's member table, kept passively from the requests
// the gateway already sends. Members start up (a gateway that boots before
// its nodes should try them, not blackhole them). A transport error marks a
// member down for readmitAfter; any HTTP answer from it clears the mark.
// Safe for concurrent use.
type liveness struct {
	now    func() time.Time // the clock; tests substitute it
	aliveG *telemetry.Gauge // cluster.members_alive

	mu        sync.Mutex
	downUntil map[string]time.Time // marked members; absent = up
}

func newLiveness(reg *telemetry.Registry) *liveness {
	return &liveness{now: time.Now, aliveG: reg.Gauge("cluster.members_alive"), downUntil: make(map[string]time.Time)}
}

// observe records the outcome of one request to a member: an answer (err
// nil) clears its mark, a transport error marks it down. An error after ctx
// has ended is the caller's going away, not the member's failure, and is
// not held against it.
func (l *liveness) observe(ctx context.Context, name string, err error) {
	if err != nil && ctx.Err() != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.downUntil[name] = l.now().Add(readmitAfter)
	} else {
		delete(l.downUntil, name)
	}
}

// upAt reports whether a member is in rotation at now: unmarked, or its
// window passed. l.mu is held.
func (l *liveness) upAt(name string, now time.Time) bool {
	until, marked := l.downUntil[name]
	return !marked || !now.Before(until)
}

// route orders ms for one routing decision, reading the table once under
// one lock: the first r members that are in rotation, then the rest of the
// first r as a last resort, then the members past r that are in rotation.
// A member whose window has passed counts as in rotation and has the window
// re-armed first, so a member that is still dead costs one request per
// window, not every request inside it.
func (l *liveness) route(ms []Member, r int) []Member {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	up := make([]bool, len(ms))
	for i, m := range ms {
		if up[i] = l.upAt(m.Name, now); up[i] {
			if _, marked := l.downUntil[m.Name]; marked {
				l.downUntil[m.Name] = now.Add(readmitAfter)
			}
		}
	}
	out := make([]Member, 0, len(ms))
	for _, pass := range []struct{ owner, up bool }{{true, true}, {true, false}, {false, true}} {
		for i, m := range ms {
			if (i < r) == pass.owner && up[i] == pass.up {
				out = append(out, m)
			}
		}
	}
	return out
}

// alive reports whether each of ms — the whole member list — is in
// rotation, taking no trial, and publishes how many are as
// cluster.members_alive. /cluster, /readyz and /metrics read it.
func (l *liveness) alive(ms []Member) []bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	out := make([]bool, len(ms))
	n := 0
	for i, m := range ms {
		if out[i] = l.upAt(m.Name, now); out[i] {
			n++
		}
	}
	l.aliveG.Set(float64(n))
	return out
}
