// Package mergetree reproduces the Figure 10 workload: an early version of
// a distributed merge-tree construction (Landge et al. [18]) written in MPI
// and executed on 1,024 processes.
//
// The algorithm proceeds in phases: after building its local tree (with
// data-dependent cost), each process exchanges boundary trees around a ring
// within its group (phase 1), then with its mirror process in the partner
// group (phase 2), and the group representatives finally merge up a binary
// tree. Processes service incoming boundary messages in arrival order
// (MPI_ANY_SOURCE), so data-dependent load imbalance lets fast groups'
// phase-2 messages arrive at slow-group processes before their own phase-1
// messages — the irregular receive order that, stepped in recorded order,
// forces events far to the right, and that the paper's reordering
// recovers (Figure 10).
package mergetree

import (
	"fmt"
	"math/rand"

	"charmtrace/internal/mpisim"
	"charmtrace/internal/trace"
)

// Config parameterizes a run.
type Config struct {
	// Procs is the process count (a power of two; the paper used 1,024).
	Procs int
	// GroupSize is the number of processes per merge group.
	GroupSize int
	// BaseCompute is the minimum local-tree construction time.
	BaseCompute mpisim.Time
	// MaxExtra is the data-dependent extra construction time; each group
	// draws uniformly from [0, MaxExtra), so whole groups run late.
	MaxExtra mpisim.Time
	// MergeCompute is the per-merge cost.
	MergeCompute mpisim.Time
	// Seed drives the imbalance draw and network jitter.
	Seed int64
	// Upsweep adds the binary-tree merge of group representatives after
	// the exchange phases.
	Upsweep bool
}

// DefaultConfig is the paper's 1,024-process configuration.
func DefaultConfig() Config {
	return Config{
		Procs: 1024, GroupSize: 16, BaseCompute: 2000, MaxExtra: 30000,
		MergeCompute: 800, Seed: 1, Upsweep: true,
	}
}

// Message tags.
const (
	tagRing  = 0 // phase 1: ring exchange within the group
	tagCross = 1 // phase 2: exchange with the mirror process in the partner group
	tagTree  = 2 // representative up-sweep rounds use tagTree + round
)

// Trace runs the merge tree and returns its event trace.
func Trace(cfg Config) (*trace.Trace, error) {
	if cfg.GroupSize < 1 || cfg.Procs < 2*cfg.GroupSize || cfg.Procs%(2*cfg.GroupSize) != 0 {
		return nil, fmt.Errorf("mergetree: Procs %d: want a positive even multiple of GroupSize %d", cfg.Procs, cfg.GroupSize)
	}
	groups := cfg.Procs / cfg.GroupSize
	rng := rand.New(rand.NewSource(cfg.Seed))
	extra := make([]mpisim.Time, groups)
	for i := range extra {
		extra[i] = mpisim.Time(rng.Int63n(int64(cfg.MaxExtra) + 1))
	}

	mpiCfg := mpisim.DefaultConfig(cfg.Procs)
	mpiCfg.Seed = cfg.Seed + 1
	return mpisim.Run(mpiCfg, func(r *mpisim.Rank) {
		g := r.ID() / cfg.GroupSize
		in := r.ID() % cfg.GroupSize
		// Mirror process in the partner group (groups pair 2k <-> 2k+1).
		partner := (g^1)*cfg.GroupSize + in
		ringNext := g*cfg.GroupSize + (in+1)%cfg.GroupSize

		// Local tree construction: whole groups run late together.
		r.Compute(cfg.BaseCompute + extra[g])

		// Phase 1 send: boundary tree to the ring successor.
		r.Send(ringNext, tagRing, nil)

		// Service both phases' messages in arrival order; the phase-2 send
		// is triggered by completing phase 1.
		for got := 0; got < 2; got++ {
			_, tag, _ := r.RecvAny(tagRing, tagCross)
			r.Compute(cfg.MergeCompute)
			if tag == tagRing {
				r.Send(partner, tagCross, nil)
			}
		}

		if !cfg.Upsweep || in != 0 {
			return
		}
		// Representative up-sweep over groups: a binary tree rooted at
		// group 0, one round per tree level.
		for k, bit := 0, 1; bit < groups; k, bit = k+1, bit<<1 {
			if g&bit != 0 {
				r.Send((g-bit)*cfg.GroupSize, tagTree+k, nil)
				return
			}
			r.Recv((g+bit)*cfg.GroupSize, tagTree+k)
			r.Compute(cfg.MergeCompute)
		}
	})
}

// MustTrace is Trace that panics on error.
func MustTrace(cfg Config) *trace.Trace {
	t, err := Trace(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
