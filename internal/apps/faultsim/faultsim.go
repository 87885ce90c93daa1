// Package faultsim is a failure-and-restart scenario: ring-coupled chares
// checkpoint through a reduction every iteration, one chare fail-stops just
// before contributing its checkpoint, and the resulting stall drains the
// whole machine. A restart manager driven by quiescence detection (the same
// runtime-internal trigger as the PDES completion detector) broadcasts a
// rollback, the victim replays its lost work, and the run continues to
// completion. The recovered structure gains rollback/replay phases between
// the stalled checkpoint and the rest of the run.
package faultsim

import (
	"fmt"

	"charmtrace/internal/sim"
	"charmtrace/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// Chares is the number of ring chares.
	Chares int
	// NumPE is the processor count.
	NumPE int
	// Iterations is the number of ring iterations.
	Iterations int
	// FailAt is the iteration during which the victim fail-stops; set it at
	// or past Iterations for a failure-free run.
	FailAt int
	// Victim is the index of the failing chare.
	Victim int
	// Compute is the per-iteration compute time.
	Compute sim.Time
	// Seed feeds the network jitter.
	Seed int64
	// TraceReductions toggles the §5 tracing additions.
	TraceReductions bool
}

// DefaultConfig is an 8-chare run on 4 processors failing in the second
// iteration.
func DefaultConfig() Config {
	return Config{
		Chares: 8, NumPE: 4, Iterations: 4, FailAt: 1, Victim: 3,
		Compute: 300, Seed: 1, TraceReductions: true,
	}
}

// state is per-chare simulation state.
type state struct {
	iter   int
	failed bool
}

// Trace runs the scenario and returns its event trace.
func Trace(cfg Config) (*trace.Trace, error) {
	if cfg.Chares < 1 {
		return nil, fmt.Errorf("faultsim: Chares %d: want 1 or more", cfg.Chares)
	}
	n := cfg.Chares
	simCfg := sim.DefaultConfig(cfg.NumPE)
	simCfg.Seed = cfg.Seed
	simCfg.TraceReductions = cfg.TraceReductions
	rt := sim.New(simCfg)

	arr := rt.NewArray("ring", n, nil, func(i int) any { return &state{} })
	// The restart manager models the runtime's fault-tolerance service: one
	// singleton chare whose trigger is quiescence detection.
	mgr := rt.NewArray("restartmgr", 1, func(i int) int { return 0 }, nil)

	var token, resume, rollback sim.EntryRef
	var red *sim.Reduction

	// the SDAG iteration body passing the ring token.
	begin := arr.RegisterSDAG("serial_0", 0, false, func(ctx *sim.Ctx, m sim.Message) {
		ctx.Compute(20)
		ctx.Send(arr.At((ctx.Index()+1)%n), token, nil)
	})
	// the when-clause serial receiving the token: compute, then contribute
	// the checkpoint — unless this is the victim's failure point, where the
	// chare fail-stops (its checkpoint contribution is simply never sent).
	token = arr.RegisterSDAG("token", 2, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		if st.iter == cfg.FailAt && ctx.Index() == cfg.Victim && !st.failed {
			st.failed = true
			return
		}
		ctx.Compute(cfg.Compute)
		ctx.Contribute(red, float64(st.iter))
	})
	// the checkpoint-complete broadcast, starting the next iteration.
	resume = arr.RegisterSDAG("resume", 4, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.iter++
		if st.iter >= cfg.Iterations {
			return
		}
		ctx.Compute(20)
		ctx.Send(arr.At((ctx.Index()+1)%n), token, nil)
	})
	// rollback: every chare verifies its checkpoint; the victim replays the
	// work it lost and finally contributes, releasing the stalled reduction.
	rollback = arr.Register("rollback", func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		if st.failed {
			st.failed = false
			ctx.Compute(cfg.Compute)
			ctx.Contribute(red, float64(st.iter))
			return
		}
		ctx.Compute(10)
	})
	restart := mgr.Register("restart", func(ctx *sim.Ctx, m sim.Message) {
		ctx.Compute(50)
		ctx.Broadcast(rollback, nil)
	})
	red = rt.NewReduction(arr, sim.Min, sim.BroadcastCallback(resume))

	for i := 0; i < n; i++ {
		rt.Spawn(arr.At(i), begin, nil)
	}
	// The failure stalls the checkpoint reduction until the machine drains;
	// quiescence detection is what notices and triggers the restart.
	rt.OnQuiescence(mgr.At(0), restart, nil)
	return rt.Run()
}

// MustTrace is Trace that panics on error.
func MustTrace(cfg Config) *trace.Trace {
	t, err := Trace(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
