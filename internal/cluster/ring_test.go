package cluster

import (
	"fmt"
	"net/url"
	"slices"
	"strings"
	"testing"
)

func members(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{Name: fmt.Sprintf("n%d", i), URL: fmt.Sprintf("http://node%d:8080", i)}
	}
	return out
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	ms := members(3)
	a, err := NewRing(ms)
	if err != nil {
		t.Fatal(err)
	}
	// Same members, listed in a different order: identical placement.
	shuffled := []Member{ms[2], ms[0], ms[1]}
	b, err := NewRing(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("digest-%04d", i)
		if a.Owner(key).Name != b.Owner(key).Name {
			t.Fatalf("key %s: owner differs across member orderings", key)
		}
	}
}

func TestRingSuccessorsDistinct(t *testing.T) {
	r, err := NewRing(members(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		succ := r.Successors(key, 3)
		if len(succ) != 3 {
			t.Fatalf("key %s: got %d successors, want 3", key, len(succ))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m.Name] {
				t.Fatalf("key %s: duplicate successor %s", key, m.Name)
			}
			seen[m.Name] = true
		}
		if succ[0].Name != r.Owner(key).Name {
			t.Fatalf("key %s: first successor is not the owner", key)
		}
	}
	// Clamping: asking for more members than exist returns all of them.
	if got := len(r.Successors("k", 99)); got != 5 {
		t.Fatalf("clamped successors = %d, want 5", got)
	}
}

// TestRingKeyMovement is the consistent-hashing contract: growing a
// 3-member ring to 4 moves roughly a quarter of the keyspace and nothing
// more; every moved key lands on the new member.
func TestRingKeyMovement(t *testing.T) {
	before, err := NewRing(members(3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(members(4))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4000
	moved, movedElsewhere := 0, 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("trace-digest-%05d", i)
		a, b := before.Owner(key), after.Owner(key)
		if a.Name != b.Name {
			moved++
			if b.Name != "n3" {
				movedElsewhere++
			}
		}
	}
	frac := float64(moved) / keys
	// Expect ~1/4; accept a generous band for vnode sampling noise.
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("membership change moved %.1f%% of keys, want ~25%%", frac*100)
	}
	if movedElsewhere != 0 {
		t.Fatalf("%d keys moved between surviving members; consistent hashing must only move keys to the new member", movedElsewhere)
	}
}

func TestRingBalance(t *testing.T) {
	r, err := NewRing(members(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i)).Name]++
	}
	for name, n := range counts {
		share := float64(n) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of the keyspace; ring is badly unbalanced", name, share*100)
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Member{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := NewRing([]Member{{Name: ""}}); err == nil {
		t.Fatal("unnamed member accepted")
	}
}

func TestParsePeers(t *testing.T) {
	ms, err := ParsePeers("n0=http://a:1, n1=http://b:2 ,n2=http://c:3/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[0].Name != "n0" || ms[2].URL != "http://c:3" {
		t.Fatalf("parsed %+v", ms)
	}
	for _, bad := range []string{"", "justaname", "n0=notaurl", "n0=http://a:1,n0=http://b:2", "a b=http://x:1"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// FuzzParsePeers: the -peers parser never panics, and every list it accepts
// is one the ring and the gateway can use — at least one member, unique
// non-empty names free of '/', space and tab, absolute http(s) URLs with no
// trailing '/' — and writes back as name=url,… to the same list.
func FuzzParsePeers(f *testing.F) {
	f.Add("n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082,n2=http://127.0.0.1:8083")
	f.Add("n0=http://a:1, n1=http://b:2 ,n2=http://c:3/")
	f.Add("n0=http://a/ /") // was kept as "http://a/ ", which writes back as "http://a"
	for _, bad := range []string{"", "justaname", "n0=notaurl", "n0=http://a:1,n0=http://b:2", "a b=http://x:1"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParsePeers(s)
		if err != nil {
			return
		}
		if len(ms) == 0 {
			t.Fatalf("ParsePeers(%q) accepted an empty list", s)
		}
		seen := make(map[string]bool, len(ms))
		parts := make([]string, len(ms))
		for i, m := range ms {
			if m.Name == "" || strings.ContainsAny(m.Name, "/ \t") || seen[m.Name] {
				t.Fatalf("ParsePeers(%q): bad or repeated name %q", s, m.Name)
			}
			seen[m.Name] = true
			u, err := url.Parse(m.URL)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || strings.HasSuffix(m.URL, "/") {
				t.Fatalf("ParsePeers(%q): member %q has URL %q", s, m.Name, m.URL)
			}
			parts[i] = m.Name + "=" + m.URL
		}
		again, err := ParsePeers(strings.Join(parts, ","))
		if err != nil || !slices.Equal(again, ms) {
			t.Fatalf("ParsePeers(%q) = %+v writes back to %+v, %v", s, ms, again, err)
		}
	})
}
