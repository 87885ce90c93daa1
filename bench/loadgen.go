package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator: K.Workers goroutines in this process, each owning one
// keep-alive connection. An op is whatever one worker does before taking
// the next — one request of the mix, or cold-ingest's upload → first
// overview → first zoom. Ops report the requests they sent to the worker's
// recorder so routes get their own percentiles.

// sample is one timed op or request. Times are offsets from the phase
// start. due is when an open-loop op was scheduled (== start in a closed
// loop); latency is counted from it, so a stall charges every op that
// should have been sent meanwhile, not only the one that hit it.
type sample struct {
	route           string
	ok              bool
	due, start, end time.Duration
}

func (s sample) latencyMS() float64 { return float64(s.end-s.due) / 1e6 }

// recorder collects one worker's samples; workers never share one.
type recorder struct {
	t0   time.Time
	ops  []sample
	reqs []sample
}

func (r *recorder) since() time.Duration { return time.Since(r.t0) }

// op runs one operation against the worker's client and reports success.
type op func(c *client) bool

// opSource hands worker w its next op. Implementations keep one seeded
// generator per worker, so the sequence each worker sends is a function of
// the seed alone.
type opSource func(w int) op

// phaseResult is what one load phase measured.
type phaseResult struct {
	open     bool
	dur      time.Duration
	windows  int
	ops      []sample
	reqs     []sample
	cpuMS    []float64 // program CPU at each window boundary (windows+1 readings)
	lateness []float64 // open loop: ms between an op's due time and its send
}

// runClosed runs each worker back-to-back for dur. cpu is sampled at every
// window boundary.
func runClosed(ctx context.Context, clients []*client, src opSource, dur time.Duration, windows int, cpu func() float64) phaseResult {
	t0 := time.Now()
	res := phaseResult{dur: dur, windows: windows}
	stopCPU := sampleCPU(t0, dur, windows, cpu, &res)
	var wg sync.WaitGroup
	for w, c := range clients {
		c.rec = &recorder{t0: t0}
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				start := c.rec.since()
				if start >= dur {
					return
				}
				ok := src(w)(c)
				c.rec.ops = append(c.rec.ops, sample{ok: ok, due: start, start: start, end: c.rec.since()})
			}
		}(w, c)
	}
	wg.Wait()
	stopCPU()
	res.collect(clients)
	return res
}

// runOpen sends ops[i] at due[i] regardless of how the program is doing:
// workers claim the next unsent op, sleep until it is due, and send it. If
// every worker is busy past an op's due time the op goes out late; the
// lateness is recorded (gen.lateness_p99_ms) and the op's latency still
// counts from its due time.
func runOpen(ctx context.Context, clients []*client, ops []op, due []time.Duration, dur time.Duration, windows int, cpu func() float64) phaseResult {
	t0 := time.Now()
	res := phaseResult{open: true, dur: dur, windows: windows}
	stopCPU := sampleCPU(t0, dur, windows, cpu, &res)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		c.rec = &recorder{t0: t0}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var late []float64
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || due[i] >= dur {
					break
				}
				if wait := due[i] - c.rec.since(); wait > 0 {
					time.Sleep(wait)
				}
				start := c.rec.since()
				ok := ops[i](c)
				c.rec.ops = append(c.rec.ops, sample{ok: ok, due: due[i], start: start, end: c.rec.since()})
				late = append(late, float64(start-due[i])/1e6)
			}
			mu.Lock()
			res.lateness = append(res.lateness, late...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	stopCPU()
	res.collect(clients)
	return res
}

// sampleCPU reads the program's CPU at t0 and at every window boundary on
// its own goroutine; the returned stop function takes the final reading if
// the phase ended before the last boundary fired.
func sampleCPU(t0 time.Time, dur time.Duration, windows int, cpu func() float64, res *phaseResult) (stop func()) {
	res.cpuMS = append(res.cpuMS, cpu())
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for w := 1; w <= windows; w++ {
			select {
			case <-time.After(time.Until(t0.Add(dur * time.Duration(w) / time.Duration(windows)))):
				res.cpuMS = append(res.cpuMS, cpu())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		for len(res.cpuMS) < windows+1 {
			res.cpuMS = append(res.cpuMS, cpu())
		}
	}
}

func (r *phaseResult) collect(clients []*client) {
	for _, c := range clients {
		r.ops = append(r.ops, c.rec.ops...)
		r.reqs = append(r.reqs, c.rec.reqs...)
	}
}

// windowStat is one measurement window's view of the ops that were due in
// it.
type windowStat struct {
	Open      bool    `json:"open_loop"`
	Attempted int     `json:"attempted"`
	OK        int     `json:"ok"`
	WallS     float64 `json:"wall_s"`
	OpsPerS   float64 `json:"ops_per_s"`
	P50ms     float64 `json:"p50_ms"`
	P95ms     float64 `json:"p95_ms"`
	CPUms     float64 `json:"cpu_ms"`
}

// windowsOf cuts a phase into its windows. An op belongs to the window it
// was due in; a window's wall time is its nominal length, except that the
// last one runs to the last completion (closed-loop workers finish the op
// they started before the deadline).
func (r *phaseResult) windowsOf() []windowStat {
	out := make([]windowStat, r.windows)
	lat := make([][]float64, r.windows)
	width := r.dur / time.Duration(r.windows)
	last := r.dur
	for _, s := range r.ops {
		w := int(s.due / width)
		if w >= r.windows {
			w = r.windows - 1
		}
		out[w].Attempted++
		if s.ok {
			out[w].OK++
			lat[w] = append(lat[w], s.latencyMS())
		}
		if s.end > last {
			last = s.end
		}
	}
	for w := range out {
		wall := width
		if w == r.windows-1 {
			wall = last - width*time.Duration(r.windows-1)
		}
		out[w].Open = r.open
		out[w].WallS = wall.Seconds()
		out[w].OpsPerS = ratio(float64(out[w].OK), wall.Seconds())
		out[w].P50ms = percentile(lat[w], 50)
		out[w].P95ms = percentile(lat[w], 95)
		out[w].CPUms = r.cpuMS[w+1] - r.cpuMS[w]
	}
	return out
}
