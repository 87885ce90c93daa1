// Package charegroup groups chares with equivalent logical behaviour, the
// scalability direction the paper's conclusion calls for ("new
// visualization techniques are needed that scale to large numbers of
// parallel tasks"). Chares whose timelines are indistinguishable in the
// recovered logical structure — same steps, same phases, same event kinds —
// collapse into one cluster, so a 13,824-chare LULESH renders as a handful
// of behavioural rows (corners, edges, faces, interior) instead of
// thousands.
package charegroup

import (
	"fmt"
	"sort"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// Cluster is one group of behaviourally equivalent chares.
type Cluster struct {
	// Representative is the lowest-ID member; renders stand for the whole
	// cluster with it.
	Representative trace.ChareID
	// Members, sorted by ID.
	Members []trace.ChareID
	// Runtime is true when the cluster holds runtime chares (clusters never
	// mix application and runtime chares).
	Runtime bool
}

// Size returns the number of member chares.
func (c *Cluster) Size() int { return len(c.Members) }

// Label renders "name ×N" for display.
func (c *Cluster) Label(tab *trace.Table) string {
	name := tab.Name[c.Representative]
	if len(c.Members) == 1 {
		return name
	}
	return fmt.Sprintf("%s x%d", name, len(c.Members))
}

// Exact clusters chares whose logical timelines are identical: the same
// sequence of (global step, event kind, phase-relative position). Phase IDs
// themselves are arbitrary, so two chares in the same phases compare by
// step and kind; chares of different phases that happen to share steps and
// kinds still group — which is the desired behaviour for symmetric
// concurrent phases (e.g. LASSEN's per-chare control phases).
func Exact(s *core.Structure) []Cluster {
	return clusterBy(s, true, signature)
}

// ByPhaseShape clusters chares by the coarser signature of how many events
// they contribute at each of their phases' local steps — ignoring global
// offsets, so chares doing the same thing in different (concurrent) phases
// group together.
func ByPhaseShape(s *core.Structure) []Cluster {
	return clusterBy(s, false, signature)
}

// signature hashes a chare's timeline — (global step if withStep, kind,
// local step) per event — with an inline 64-bit multiply-xorshift mix. It
// only has to spread: clusterBy compares the timelines inside a signature
// group, so a collision costs a comparison, never a wrong cluster.
func signature(s *core.Structure, c trace.ChareID, withStep bool) uint64 {
	h, kind := uint64(14695981039346656037), s.Table().Kind
	for _, e := range s.EventsOfChare(c) {
		if withStep {
			h = mix(h, uint64(s.Step[e]))
		}
		h = mix(h, uint64(kind[e]))
		h = mix(h, uint64(s.LocalStep[e]))
	}
	return h
}

func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// sameTimeline compares what signature hashes, event by event.
func sameTimeline(s *core.Structure, a, b trace.ChareID, withStep bool) bool {
	ea, eb, kind := s.EventsOfChare(a), s.EventsOfChare(b), s.Table().Kind
	if len(ea) != len(eb) {
		return false
	}
	for i, x := range ea {
		y := eb[i]
		if kind[x] != kind[y] || s.LocalStep[x] != s.LocalStep[y] ||
			withStep && s.Step[x] != s.Step[y] {
			return false
		}
	}
	return true
}

// clusterBy groups chares with equal timelines (sameTimeline under
// withStep), keeping application and runtime chares apart, and orders
// clusters by representative ID. sig buckets the chares first so each is
// compared against the few that hash alike; it is a parameter so a test can
// force every chare into one bucket.
func clusterBy(s *core.Structure, withStep bool, sig func(*core.Structure, trace.ChareID, bool) uint64) []Cluster {
	type key struct {
		sig     uint64
		runtime bool
	}
	groups := make(map[key][]trace.ChareID)
	for ci, runtime := range s.Table().Runtime {
		c := trace.ChareID(ci)
		k := key{sig(s, c, withStep), runtime}
		groups[k] = append(groups[k], c)
	}
	out := make([]Cluster, 0, len(groups))
	for k, rest := range groups {
		// rest is in ascending ID order. Compact the chares equal to its
		// first to the front; the others collided on the signature and go
		// round again — normally none, and rest is one cluster whole.
		for len(rest) > 0 {
			var other []trace.ChareID
			n := 1
			for _, c := range rest[1:] {
				if sameTimeline(s, rest[0], c, withStep) {
					rest[n] = c
					n++
				} else {
					other = append(other, c)
				}
			}
			out = append(out, Cluster{Representative: rest[0], Members: rest[:n:n], Runtime: k.runtime})
			rest = other
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runtime != out[j].Runtime {
			return !out[i].Runtime
		}
		return out[i].Representative < out[j].Representative
	})
	return out
}

// Validate checks the clustering invariants: every chare in exactly one
// cluster, members sorted, kinds unmixed.
func Validate(s *core.Structure, clusters []Cluster) error {
	seen, runtime := make(map[trace.ChareID]bool), s.Table().Runtime
	for i := range clusters {
		c := &clusters[i]
		if len(c.Members) == 0 {
			return fmt.Errorf("cluster: empty cluster %d", i)
		}
		if c.Representative != c.Members[0] {
			return fmt.Errorf("cluster: representative %d is not the first member", c.Representative)
		}
		for j, m := range c.Members {
			if seen[m] {
				return fmt.Errorf("cluster: chare %d in two clusters", m)
			}
			seen[m] = true
			if j > 0 && c.Members[j-1] >= m {
				return fmt.Errorf("cluster: members unsorted in cluster %d", i)
			}
			if runtime[m] != c.Runtime {
				return fmt.Errorf("cluster: mixed kinds in cluster %d", i)
			}
		}
	}
	if len(seen) != len(runtime) {
		return fmt.Errorf("cluster: %d chares clustered, trace has %d", len(seen), len(runtime))
	}
	return nil
}
