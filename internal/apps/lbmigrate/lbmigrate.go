// Package lbmigrate is a load-balancing scenario: a 1D stencil whose chares
// carry deliberately imbalanced compute costs, run a load-balancing step
// mid-run (a load reduction whose broadcast callback triggers migrations),
// and continue iterating from their new processors. Charm++ migrates chares
// between entry-method executions and reroutes in-flight messages; the
// logical structure is keyed by chares, so the recovered structure must be
// invariant to the migration even though every physical timeline after the
// LB step changes.
package lbmigrate

import (
	"fmt"

	"charmtrace/internal/sim"
	"charmtrace/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// Chares is the number of stencil chares.
	Chares int
	// NumPE is the processor count.
	NumPE int
	// Iterations is the number of stencil iterations.
	Iterations int
	// MigrateAt is the iteration before which the LB step runs (chares
	// migrate between iteration MigrateAt-1 and MigrateAt).
	MigrateAt int
	// Compute is the base per-iteration compute time; chare i costs
	// Compute*(1+i%3), the imbalance the LB step reacts to.
	Compute sim.Time
	// Seed feeds the network jitter.
	Seed int64
	// TraceReductions toggles the §5 tracing additions.
	TraceReductions bool
	// DisableLB skips both the LB reduction and the migrations, keeping the
	// iteration structure otherwise identical (the migration-invariance
	// baseline).
	DisableLB bool
}

// DefaultConfig is an 8-chare run on 4 processors with the LB step after
// the second iteration.
func DefaultConfig() Config {
	return Config{
		Chares: 8, NumPE: 4, Iterations: 5, MigrateAt: 2,
		Compute: 400, Seed: 1, TraceReductions: true,
	}
}

// state is per-chare simulation state.
type state struct {
	iter   int
	ghosts int
}

// Trace runs the scenario and returns its event trace.
func Trace(cfg Config) (*trace.Trace, error) {
	if cfg.Chares < 1 {
		return nil, fmt.Errorf("lbmigrate: Chares %d: want 1 or more", cfg.Chares)
	}
	n := cfg.Chares
	simCfg := sim.DefaultConfig(cfg.NumPE)
	simCfg.Seed = cfg.Seed
	simCfg.TraceReductions = cfg.TraceReductions
	rt := sim.New(simCfg)

	arr := rt.NewArray("lbmig", n, nil, func(i int) any { return &state{} })
	neighbors := func(i int) []int {
		var out []int
		if i > 0 {
			out = append(out, i-1)
		}
		if i < n-1 {
			out = append(out, i+1)
		}
		return out
	}
	load := func(i int) sim.Time { return cfg.Compute * sim.Time(1+i%3) }

	var ghost, resume, lbResume sim.EntryRef
	var red, lbRed *sim.Reduction

	sendHalos := func(ctx *sim.Ctx) {
		for _, nb := range neighbors(ctx.Index()) {
			ctx.Send(arr.At(nb), ghost, ctx.Index())
		}
	}

	// the SDAG iteration body sending halo exchanges.
	begin := arr.RegisterSDAG("serial_0", 0, false, func(ctx *sim.Ctx, m sim.Message) {
		ctx.Compute(20)
		sendHalos(ctx)
	})
	// the when-clause serial receiving ghosts; computes the imbalanced load
	// and contributes it to the per-iteration Sum reduction.
	ghost = arr.RegisterSDAG("ghost", 2, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.ghosts++
		if st.ghosts < len(neighbors(ctx.Index())) {
			ctx.Compute(5)
			return
		}
		st.ghosts = 0
		ctx.Compute(load(ctx.Index()))
		ctx.Contribute(red, float64(load(ctx.Index())))
	})
	// the serial triggered by the reduction broadcast: before iteration
	// MigrateAt it detours through the LB step instead of iterating.
	resume = arr.RegisterSDAG("resume", 4, false, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.iter++
		if st.iter >= cfg.Iterations {
			return
		}
		if st.iter == cfg.MigrateAt && !cfg.DisableLB {
			ctx.Compute(10)
			ctx.Contribute(lbRed, float64(load(ctx.Index())))
			return
		}
		ctx.Compute(20)
		sendHalos(ctx)
	})
	// the LB decision broadcast: every third chare moves to the next
	// processor (a deterministic stand-in for a greedy rebalancer), then the
	// interrupted iteration resumes from the new placement.
	lbResume = arr.RegisterSDAG("lbResume", 6, false, func(ctx *sim.Ctx, m sim.Message) {
		if ctx.Index()%3 == 1 {
			ctx.Migrate((ctx.PE() + 1) % cfg.NumPE)
		}
		ctx.Compute(20)
		sendHalos(ctx)
	})
	red = rt.NewReduction(arr, sim.Sum, sim.BroadcastCallback(resume))
	lbRed = rt.NewReduction(arr, sim.Sum, sim.BroadcastCallback(lbResume))

	for i := 0; i < n; i++ {
		rt.Spawn(arr.At(i), begin, nil)
	}
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
