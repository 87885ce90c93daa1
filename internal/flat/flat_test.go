package flat

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGroup is Group by definition: the kept items stably sorted by key, and
// each key's bounds in that order.
func refGroup(n int, items, col []int32) ([]int32, []int32) {
	var kept []int32
	for _, x := range items {
		if col[x] >= 0 {
			kept = append(kept, x)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return col[kept[i]] < col[kept[j]] })
	off := make([]int32, n+1)
	for k := range off {
		off[k] = int32(sort.Search(len(kept), func(i int) bool { return int(col[kept[i]]) >= k }))
	}
	return off, kept
}

func checkGroup(t *testing.T, what string, got Rows[int32], n int, items, col []int32) {
	t.Helper()
	off, kept := refGroup(n, items, col)
	if !slices.Equal(got.Off, off) || !slices.Equal(got.IDs, kept) {
		t.Fatalf("%s: n=%d items=%v col=%v:\n got off %v ids %v\nwant off %v ids %v", what, n, items, col, got.Off, got.IDs, off, kept)
	}
	for k := 0; k < n; k++ {
		row := got.Row(k)
		if !slices.Equal(row, kept[off[k]:off[k+1]]) || (len(row) == 0) != (row == nil) {
			t.Fatalf("%s: row %d = %v (nil %v), want %v", what, k, row, row == nil, kept[off[k]:off[k+1]])
		}
		// Full capacity: an append reallocates instead of clobbering the
		// next row.
		if cap(row) != len(row) {
			t.Fatalf("%s: row %d has cap %d over len %d", what, k, cap(row), len(row))
		}
	}
}

// TestGroupMatchesStableSort holds Group and GroupAll to sort.SliceStable on
// random columns: no rows, no items, empty rows, dropped (negative) keys up
// to all of them, keys at n-1, items that repeat or skip positions, and
// caller buffers that are missing, too short, exact or longer than needed —
// round after round on the same buffers, so nothing stale survives a reuse.
func TestGroupMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var off, dst []int32
	for round := 0; round < 2000; round++ {
		n := rng.Intn(6)
		if rng.Intn(4) == 0 {
			n = rng.Intn(300)
		}
		col := make([]int32, rng.Intn(40))
		negative := rng.Intn(3) // 0: none dropped, 1: some, 2: all
		for i := range col {
			switch {
			case n == 0 || negative == 2 || negative == 1 && rng.Intn(3) == 0:
				col[i] = -1 - int32(rng.Intn(3))
			case rng.Intn(4) == 0:
				col[i] = int32(n - 1)
			default:
				col[i] = int32(rng.Intn(n))
			}
		}
		var items []int32
		if len(col) > 0 {
			items = make([]int32, rng.Intn(60))
			for i := range items {
				items[i] = int32(rng.Intn(len(col)))
			}
		}
		switch rng.Intn(3) {
		case 0:
			off, dst = nil, nil
		case 1:
			dst = make([]int32, len(items)+len(col)+5) // longer than kept
		}
		all := make([]int32, len(col))
		for i := range all {
			all[i] = int32(i)
		}
		r := GroupAll(n, off, dst, col)
		checkGroup(t, "GroupAll", r, n, all, col)
		off, dst = r.Off, r.IDs
		r = Group(n, off, dst, items, col)
		checkGroup(t, "Group", r, n, items, col)
		off, dst = r.Off, r.IDs
	}
}

// TestGroupRowAppendDoesNotClobberNeighbour is the property adjFromEdges and
// the phase tables rely on: rows are full-capacity sub-slices of one array.
func TestGroupRowAppendDoesNotClobberNeighbour(t *testing.T) {
	r := GroupAll[int32](3, nil, nil, []int32{0, 1, 0, 2, 1})
	_ = append(r.Row(0), 99)
	if want := []int32{0, 2, 1, 4, 3}; !slices.Equal(r.IDs, want) {
		t.Fatalf("append to row 0 changed the rows: %v, want %v", r.IDs, want)
	}
}

func TestGrow(t *testing.T) {
	buf := make([]int32, 4, 8)
	if got := Grow(buf, 6); len(got) != 6 || &got[0] != &buf[0] {
		t.Fatalf("Grow within capacity must reslice: len %d", len(got))
	}
	if got := Grow(buf, 9); len(got) != 9 || &got[0] == &buf[0] {
		t.Fatalf("Grow past capacity must allocate: len %d", len(got))
	}
	if got := Grow([]int32(nil), 0); len(got) != 0 {
		t.Fatalf("Grow(nil, 0) has len %d", len(got))
	}
}

// FuzzGroup: random bytes become a row count, a key column (some keys
// negative) and an item list; GroupAll and Group must not panic and must
// equal the stable reference.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{4, 9, 1, 0, 3, 200, 3, 1, 7, 7, 0, 2})
	f.Add([]byte{1, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, data := int(data[0]), data[1:]
		col := make([]int32, (len(data)+1)/2)
		items := make([]int32, 0, len(data)/2)
		for i, b := range data {
			if i%2 == 1 {
				items = append(items, int32(int(b)%len(col)))
				continue
			}
			// The top bit drops the item; otherwise the key is below n.
			col[i/2] = -1
			if b < 128 && n > 0 {
				col[i/2] = int32(int(b) % n)
			}
		}
		all := make([]int32, len(col))
		for i := range all {
			all[i] = int32(i)
		}
		checkGroup(t, "GroupAll", GroupAll[int32](n, nil, nil, col), n, all, col)
		checkGroup(t, "Group", Group[int32](n, nil, nil, items, col), n, items, col)
	})
}

// TestRadixSortIsAStableSort: random keys of every width class (one digit,
// several, all 64 bits, all equal, bits set only far apart) at sizes around
// the digit-width breakpoints, against slices.SortStableFunc; sorting twice
// in a row on the same scratch chains as two stable sorts do.
func TestRadixSortIsAStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	masks := []uint64{0, 0xf, 0x7ff, 0xfffff, 1<<40 | 1, 1<<63 | 0xff00, ^uint64(0)}
	var sc Sorter[int32]
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 2047, 2048, 2049, 50000} {
		for _, mask := range masks {
			type item struct {
				key, key2 uint64
				id        int32
			}
			items := make([]item, n)
			keys, ids := sc.Columns(n)
			for i := range items {
				items[i] = item{rng.Uint64() & mask, rng.Uint64() & 0x3, int32(i)}
				keys[i], ids[i] = items[i].key2, int32(i)
			}
			// Least significant key first, as the ordering stage chains them.
			_, order := sc.Sort(n)
			keys, _ = sc.Columns(n)
			for i, id := range order {
				keys[i] = items[id].key
			}
			keys, order = sc.Sort(n)
			slices.SortStableFunc(items, func(a, b item) int {
				switch {
				case a.key != b.key && a.key < b.key, a.key == b.key && a.key2 < b.key2:
					return -1
				case a.key == b.key && a.key2 == b.key2:
					return 0
				}
				return 1
			})
			for i, it := range items {
				if order[i] != it.id || keys[i] != it.key {
					t.Fatalf("n=%d mask=%#x: position %d holds id %d key %#x, want id %d key %#x",
						n, mask, i, order[i], keys[i], it.id, it.key)
				}
			}
		}
	}
}

// TestRadixSortHighColumn: a key wider than 64 bits is two chained sorts on a
// caller's own columns — by the low word carrying the high one, then by the
// high word carrying the low one (lod's edge keys) — and must equal the
// (hi, lo) order, for every pairing of width classes.
func TestRadixSortHighColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	masks := []uint64{0, 0x3, 0x7ff, 1<<40 | 1, ^uint64(0)}
	for _, n := range []int{0, 1, 17, 2049, 20000} {
		for _, loMask := range masks {
			for _, hiMask := range masks {
				type wide struct{ hi, lo uint64 }
				want := make([]wide, n)
				lo, hi := make([]uint64, n), make([]uint64, n)
				for i := range want {
					want[i] = wide{rng.Uint64() & hiMask, rng.Uint64() & loMask}
					hi[i], lo[i] = want[i].hi, want[i].lo
				}
				s := Sorter[uint64]{Key: lo, Val: hi, TmpKey: make([]uint64, n), TmpVal: make([]uint64, n)}
				s.Sort(n)
				s.Key, s.Val, s.TmpKey, s.TmpVal = s.Val, s.Key, s.TmpVal, s.TmpKey
				hi, lo = s.Sort(n)
				slices.SortFunc(want, func(a, b wide) int {
					if a.hi != b.hi {
						return cmp.Compare(a.hi, b.hi)
					}
					return cmp.Compare(a.lo, b.lo)
				})
				for i, w := range want {
					if hi[i] != w.hi || lo[i] != w.lo {
						t.Fatalf("n=%d masks %#x/%#x: position %d holds %#x:%#x, want %#x:%#x", n, hiMask, loMask, i, hi[i], lo[i], w.hi, w.lo)
					}
				}
			}
		}
	}
}
