// Package cluster is charmd's scale-out layer: a consistent-hash ring over
// a static member list, health tracking for those members, the node-side
// peer client that fills caches from ring siblings, and the charm-gateway
// HTTP front end that routes requests across nodes, fails over between
// them, and copies uploaded traces to each digest's replica set.
//
// The unit of placement is the trace digest — the same content address the
// single-node cache keys on — so every request that names a trace lands on
// the node that owns its bytes, and a cache filled on one owner is a peer
// fill away for its replicas. Membership is static (a -peers flag or a JSON
// file): the ring only changes when an operator changes it, and the
// consistent hash bounds the resulting key movement to roughly 1/N of the
// keyspace per membership change.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// virtualNodes is the per-member virtual-node count. 64 points per member
// keeps the expected load imbalance across a handful of members in the
// few-percent range without making ring construction or lookup noticeable.
// A constant, not a setting: the gateway and every node's peer client must
// build the same ring or routing and peer fill disagree about owners.
const virtualNodes = 64

// Member is one charmd node in the cluster: a stable name (the ring hashes
// the name, so renaming a node moves its keys) and the base URL the
// gateway and its peers reach it at.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Ring is an immutable consistent-hash ring over a member list. Build one
// with NewRing; lookups are safe for concurrent use.
type Ring struct {
	members []Member
	points  []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the ring and the index of
// the member that owns it.
type ringPoint struct {
	hash   uint64
	member int
}

// hashKey maps a routing key (a trace digest) to its ring position.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds the ring. Member order does not matter (placement depends
// only on names), names must be unique and non-empty.
func NewRing(members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]Member(nil), members...),
		points:  make([]ringPoint, 0, len(members)*virtualNodes),
	}
	for i, m := range members {
		if m.Name == "" {
			return nil, fmt.Errorf("cluster: member %d has no name", i)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		for v := 0; v < virtualNodes; v++ {
			// The vnode key is name-derived only: the same member set always
			// yields the same ring, regardless of URLs or listing order.
			r.points = append(r.points, ringPoint{
				hash:   hashKey(m.Name + "\x00" + strconv.Itoa(v)),
				member: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by member index for determinism.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// Members returns the ring's member list (a copy).
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member that owns key: the first distinct member
// clockwise from the key's ring position.
func (r *Ring) Owner(key string) Member { return r.Successors(key, 1)[0] }

// Successors returns up to n distinct members in ring order starting at
// key's position: the owner first, then the members that hold the key's
// replicas. n > Len() is clamped; the result is never empty.
func (r *Ring) Successors(key string, n int) []Member {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n < 1 {
		n = 1
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]Member, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
