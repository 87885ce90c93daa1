// Package lulesh is a communication-skeleton proxy of the LULESH
// hydrodynamics mini-app used in Section 6.1.
//
// The Charm++ variant reproduces the structure of Figure 16(b): a single
// problem-setup phase, then per timestep two point-to-point phases with
// mirrored communication patterns (sends to the plus-direction face
// neighbours, then — after SDAG control that the tracing framework does not
// record — sends to the minus-direction neighbours) followed by a dt
// allreduce. Because every exchange is fired from fine-grained serial
// blocks with unrecorded control between them, the per-exchange partitions
// are disconnected "stars" that only the §3.1.4 inference (Algorithms 3 and
// 4) assembles into whole phases; disabling the inference reproduces
// Figure 17's splitting.
//
// The MPI variant reproduces Figure 16(a): setup, then per timestep three
// exchange phases and an allreduce.
package lulesh

import (
	"fmt"

	"charmtrace/internal/mpisim"
	"charmtrace/internal/sim"
	"charmtrace/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// Grid is the sub-domain grid edge: Grid^3 chares (or ranks).
	Grid int
	// NumPE is the processor count (Charm++ variant; MPI runs one rank per
	// processor).
	NumPE int
	// Iterations is the number of timesteps.
	Iterations int
	// Compute is the per-phase base compute time.
	Compute sim.Time
	// Seed feeds the network jitter.
	Seed int64
	// TraceReductions toggles the §5 additions (Charm++ variant).
	TraceReductions bool
}

// DefaultConfig is the paper's 8-chare (2x2x2) Charm++ run on 2 PEs.
func DefaultConfig() Config {
	return Config{Grid: 2, NumPE: 2, Iterations: 4, Compute: 400, Seed: 1, TraceReductions: true}
}

// plusNeighbors returns the +x/+y/+z face neighbours of sub-domain i.
func plusNeighbors(i, g int) []int {
	x, y, z := i%g, (i/g)%g, i/(g*g)
	var out []int
	if x < g-1 {
		out = append(out, i+1)
	}
	if y < g-1 {
		out = append(out, i+g)
	}
	if z < g-1 {
		out = append(out, i+g*g)
	}
	_ = z
	return out
}

// minusNeighbors returns the -x/-y/-z face neighbours of sub-domain i.
func minusNeighbors(i, g int) []int {
	x, y := i%g, (i/g)%g
	z := i / (g * g)
	var out []int
	if x > 0 {
		out = append(out, i-1)
	}
	if y > 0 {
		out = append(out, i-g)
	}
	if z > 0 {
		out = append(out, i-g*g)
	}
	return out
}

// allNeighbors returns all face neighbours.
func allNeighbors(i, g int) []int {
	return append(plusNeighbors(i, g), minusNeighbors(i, g)...)
}

// state is per-chare simulation state for the Charm++ variant.
type state struct {
	iter        int
	setupGhosts int
	ghost1      int // minus-side messages received this timestep
	ghost2      int // plus-side messages received this timestep
}

// CharmTrace runs the Charm++ variant.
func CharmTrace(cfg Config) (*trace.Trace, error) {
	if cfg.Grid < 1 {
		return nil, fmt.Errorf("lulesh: Grid %d: want 1 or more", cfg.Grid)
	}
	g := cfg.Grid
	n := g * g * g
	simCfg := sim.DefaultConfig(cfg.NumPE)
	simCfg.Seed = cfg.Seed
	simCfg.TraceReductions = cfg.TraceReductions
	rt := sim.New(simCfg)
	arr := rt.NewArray("lulesh", n, nil, func(i int) any { return &state{} })

	var recvSetup, ghost1, ghost2, mirror, resume sim.EntryRef
	var setupRed, dtRed *sim.Reduction

	// startPlus fires the plus-direction exchange of one timestep; the
	// chare with no minus neighbours (the min corner) proceeds straight to
	// the mirror exchange since it has nothing to wait for.
	startPlus := func(ctx *sim.Ctx) {
		for _, nb := range plusNeighbors(ctx.Index(), g) {
			ctx.Send(arr.At(nb), ghost1, nil)
		}
		if len(minusNeighbors(ctx.Index(), g)) == 0 {
			ctx.SendUntraced(arr.At(ctx.Index()), mirror, nil)
		}
	}
	finishStep := func(ctx *sim.Ctx, st *state) {
		ctx.Compute(cfg.Compute)
		ctx.Contribute(dtRed, 0.01)
	}

	// Setup: one exchange with all neighbours, then a setup reduction.
	begin := arr.Register("init", func(ctx *sim.Ctx, m sim.Message) {
		ctx.Compute(2 * cfg.Compute)
		for _, nb := range allNeighbors(ctx.Index(), g) {
			ctx.Send(arr.At(nb), recvSetup, nil)
		}
	})
	recvSetup = arr.Register("recvSetup", func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.setupGhosts++
		ctx.Compute(10)
		if st.setupGhosts == len(allNeighbors(ctx.Index(), g)) {
			ctx.Compute(cfg.Compute / 2)
			ctx.Contribute(setupRed, 0)
		}
	})
	// Timestep phase 1: receive a minus-side ghost; when all have arrived,
	// SDAG control (not recorded) starts the mirrored exchange.
	ghost1 = arr.RegisterSDAG("recvPlusGhost", 1, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.ghost1++
		ctx.Compute(10)
		if st.ghost1 == len(minusNeighbors(ctx.Index(), g)) {
			st.ghost1 = 0
			ctx.SendUntraced(arr.At(ctx.Index()), mirror, nil)
		}
	})
	// The mirrored exchange: compute, then send to the minus neighbours.
	mirror = arr.RegisterSDAG("sendMirror", 2, false, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		ctx.Compute(cfg.Compute)
		for _, nb := range minusNeighbors(ctx.Index(), g) {
			ctx.Send(arr.At(nb), ghost2, nil)
		}
		if len(plusNeighbors(ctx.Index(), g)) == 0 {
			finishStep(ctx, st)
		}
	})
	// Timestep phase 2: receive a plus-side ghost; when all have arrived,
	// compute and contribute to the dt reduction.
	ghost2 = arr.RegisterSDAG("recvMinusGhost", 5, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.ghost2++
		ctx.Compute(10)
		if st.ghost2 == len(plusNeighbors(ctx.Index(), g)) {
			st.ghost2 = 0
			finishStep(ctx, st)
		}
	})
	resume = arr.RegisterSDAG("resume", 7, true, func(ctx *sim.Ctx, m sim.Message) {
		st := ctx.State().(*state)
		st.iter++
		if st.iter > cfg.Iterations {
			return
		}
		ctx.Compute(cfg.Compute / 4)
		startPlus(ctx)
	})
	setupRed = rt.NewReduction(arr, sim.Sum, sim.BroadcastCallback(resume))
	dtRed = rt.NewReduction(arr, sim.Min, sim.BroadcastCallback(resume))

	for i := 0; i < n; i++ {
		rt.Spawn(arr.At(i), begin, nil)
	}
	return rt.Run()
}

// MustCharmTrace is CharmTrace that panics on error.
func MustCharmTrace(cfg Config) *trace.Trace {
	t, err := CharmTrace(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// MPITrace runs the MPI variant: one rank per sub-domain, a setup exchange
// plus setup allreduce, then per timestep three exchange phases and a dt
// allreduce (Figure 16a).
func MPITrace(cfg Config) (*trace.Trace, error) {
	g := cfg.Grid
	n := g * g * g
	mpiCfg := mpisim.DefaultConfig(n)
	mpiCfg.Seed = cfg.Seed
	exchange := func(r *mpisim.Rank, tag int, nbs []int) {
		for _, nb := range nbs {
			r.Send(nb, tag, nil)
		}
		for _, nb := range nbs {
			r.Recv(nb, tag)
		}
	}
	return mpisim.Run(mpiCfg, func(r *mpisim.Rank) {
		r.Compute(2 * cfg.Compute)
		exchange(r, 0, allNeighbors(r.ID(), g))
		r.Allreduce(0, mpisim.Sum)
		for it := 0; it < cfg.Iterations; it++ {
			for phase := 1; phase <= 3; phase++ {
				r.Compute(cfg.Compute)
				exchange(r, it*3+phase, allNeighbors(r.ID(), g))
			}
			r.Allreduce(0.01, mpisim.Min)
		}
	})
}

// MustMPITrace is MPITrace that panics on error.
func MustMPITrace(cfg Config) *trace.Trace {
	t, err := MPITrace(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
