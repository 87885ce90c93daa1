package metrics

import (
	"math/rand"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

// twoChareTrace: chare A sends to B; B's block has a long compute before a
// second send, letting us pin down sub-block durations.
func twoChareTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder(2)
	e := b.AddEntry("work")
	a := b.AddChare("A", trace.NoArray, -1, 0)
	bb := b.AddChare("B", trace.NoArray, -1, 1)
	m1, m2 := b.NewMsg(), b.NewMsg()
	// A: block [0,10], send m1 at 4.
	b.BeginBlock(a, 0, e, 0)
	b.Send(a, m1, 4)
	b.EndBlock(a, 10)
	// B: block [20,100], recv m1 at 20, send m2 at 90, trailing 10ns.
	b.BeginBlock(bb, 1, e, 20)
	b.Recv(bb, m1, 20)
	b.Send(bb, m2, 90)
	b.EndBlock(bb, 100)
	// A: block [110,115], recv m2.
	b.BeginBlock(a, 0, e, 110)
	b.Recv(a, m2, 110)
	b.EndBlock(a, 115)
	b.Idle(0, 10, 110) // A's PE idled between its blocks
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return tr
}

func extract(t *testing.T, tr *trace.Trace) *core.Structure {
	t.Helper()
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return s
}

func TestSubBlockDurations(t *testing.T) {
	tr := twoChareTrace(t)
	dur := tr.Table().SubDur
	// Event 0: A's send at 4, block [0,10], send-initial block: leftover 6
	// goes to the last event (itself): 4 + 6 = 10.
	if dur[0] != 10 {
		t.Fatalf("send sub-block = %d, want 10", dur[0])
	}
	// Event 1: B's recv at 20, block [20,100]: 0 span + leftover 10 = 10.
	if dur[1] != 10 {
		t.Fatalf("recv sub-block = %d, want 10 (leftover to recorded start)", dur[1])
	}
	// Event 2: B's send at 90: 90-20 = 70 (the compute).
	if dur[2] != 70 {
		t.Fatalf("compute sub-block = %d, want 70", dur[2])
	}
	// Event 3: A's recv at 110, block [110,115]: 0 + leftover 5.
	if dur[3] != 5 {
		t.Fatalf("final recv sub-block = %d, want 5", dur[3])
	}
}

func TestSubBlockDurationsSumToBlockDuration(t *testing.T) {
	tr := twoChareTrace(t)
	dur := tr.Table().SubDur
	for bi := range tr.Blocks {
		blk := &tr.Blocks[bi]
		if len(blk.Events) == 0 {
			continue
		}
		var sum trace.Time
		for _, e := range blk.Events {
			sum += dur[e]
		}
		if sum != blk.Duration() {
			t.Fatalf("block %d sub-blocks sum to %d, duration %d", bi, sum, blk.Duration())
		}
	}
}

func TestDifferentialDurationNonNegativeWithZeroMin(t *testing.T) {
	tr := twoChareTrace(t)
	r := Compute(extract(t, tr))
	type key struct{ p, s int32 }
	zero := make(map[key]bool)
	for e := range tr.Events {
		d := r.DifferentialDuration[e]
		if d < 0 {
			t.Fatalf("negative differential duration at %d", e)
		}
		if d == 0 {
			zero[key{r.Structure.PhaseOf[e], r.Structure.LocalStep[e]}] = true
		}
	}
	for e := range tr.Events {
		k := key{r.Structure.PhaseOf[e], r.Structure.LocalStep[e]}
		if !zero[k] {
			t.Fatalf("group %+v has no zero-differential event", k)
		}
	}
}

func TestDifferentialHighlightsSlowPeer(t *testing.T) {
	// Four chares each receive a message at the same logical step; one takes
	// 10x longer. Differential duration must single it out.
	b := trace.NewBuilder(5)
	e := b.AddEntry("work")
	root := b.AddChare("root", trace.NoArray, -1, 4)
	var kids []trace.ChareID
	for i := 0; i < 4; i++ {
		kids = append(kids, b.AddChare("kid", 0, i, trace.PE(i)))
	}
	m := b.NewMsg()
	b.BeginBlock(root, 4, e, 0)
	b.Send(root, m, 0)
	b.EndBlock(root, 1)
	reply := make([]trace.MsgID, 4)
	for i, k := range kids {
		reply[i] = b.NewMsg()
		dur := trace.Time(10)
		if i == 2 {
			dur = 100 // the slow chare
		}
		begin := trace.Time(10)
		b.BeginBlock(k, trace.PE(i), e, begin)
		b.Recv(k, m, begin)
		b.Send(k, reply[i], begin+dur)
		b.EndBlock(k, begin+dur)
	}
	for i := range kids {
		begin := trace.Time(200 + 10*trace.Time(i))
		b.BeginBlock(root, 4, e, begin)
		b.Recv(root, reply[i], begin)
		b.EndBlock(root, begin+1)
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	r := Compute(extract(t, tr))
	maxD, at := r.MaxDifferentialDuration()
	if maxD != 90 {
		t.Fatalf("max differential = %d, want 90", maxD)
	}
	if tr.Events[at].Chare != kids[2] {
		t.Fatalf("max differential at chare %d, want slow chare %d", tr.Events[at].Chare, kids[2])
	}
	high := r.HighDifferentialEvents(0.5)
	if len(high) != 1 || high[0] != at {
		t.Fatalf("HighDifferentialEvents = %v, want only the slow event", high)
	}
}

func TestIdleExperienced(t *testing.T) {
	tr := twoChareTrace(t)
	r := Compute(extract(t, tr))
	// PE 0 idled [10,110]; the block starting at 110 (event 3) follows it.
	if r.IdleExperienced[3] != 100 {
		t.Fatalf("idle experienced at event 3 = %d, want 100", r.IdleExperienced[3])
	}
	for e := 0; e < 3; e++ {
		if r.IdleExperienced[e] != 0 {
			t.Fatalf("event %d has idle experienced %d, want 0", e, r.IdleExperienced[e])
		}
	}
}

func TestIdleExperiencedPropagation(t *testing.T) {
	// PE 0 idles, then runs two blocks whose dependencies (sends) both
	// started before the idle ended, then one whose dependency started
	// after: the first two experience the idle, the third does not.
	b := trace.NewBuilder(2)
	e := b.AddEntry("work")
	src := b.AddChare("src", trace.NoArray, -1, 1)
	c0 := b.AddChare("c0", trace.NoArray, -1, 0)
	c1 := b.AddChare("c1", trace.NoArray, -1, 0)
	c2 := b.AddChare("c2", trace.NoArray, -1, 0)
	m0, m1, m2 := b.NewMsg(), b.NewMsg(), b.NewMsg()
	b.BeginBlock(src, 1, e, 0)
	b.Send(src, m0, 10)
	b.Send(src, m1, 20)
	b.EndBlock(src, 30)
	b.BeginBlock(src, 1, e, 150)
	b.Send(src, m2, 160)
	b.EndBlock(src, 170)
	b.Idle(0, 0, 100)
	b.BeginBlock(c0, 0, e, 100)
	b.Recv(c0, m0, 100)
	b.EndBlock(c0, 110)
	b.BeginBlock(c1, 0, e, 110)
	b.Recv(c1, m1, 110)
	b.EndBlock(c1, 120)
	b.BeginBlock(c2, 0, e, 200)
	b.Recv(c2, m2, 200)
	b.EndBlock(c2, 210)
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	r := Compute(extract(t, tr))
	recv0 := tr.RecvsOf(m0)[0]
	recv1 := tr.RecvsOf(m1)[0]
	recv2 := tr.RecvsOf(m2)[0]
	if r.IdleExperienced[recv0] != 100 {
		t.Fatalf("recv0 idle = %d, want 100", r.IdleExperienced[recv0])
	}
	if r.IdleExperienced[recv1] != 100 {
		t.Fatalf("recv1 idle = %d, want 100 (dependency started before idle end)", r.IdleExperienced[recv1])
	}
	if r.IdleExperienced[recv2] != 0 {
		t.Fatalf("recv2 idle = %d, want 0 (dependency after idle end)", r.IdleExperienced[recv2])
	}
}

func TestImbalance(t *testing.T) {
	tr := twoChareTrace(t)
	r := Compute(extract(t, tr))
	for pi := range r.PhaseImbalance {
		if r.PhaseImbalance[pi] < 0 {
			t.Fatalf("negative phase imbalance at %d", pi)
		}
	}
	// In the phase holding B's 70ns compute, PE 1 outweighs PE 0.
	s := r.Structure
	computeEvent := trace.EventID(2)
	pi := s.PhaseOf[computeEvent]
	if r.PhaseLoad[pi][1] <= r.PhaseLoad[pi][0] {
		t.Fatalf("phase %d loads: PE1=%d PE0=%d, want PE1 heavier",
			pi, r.PhaseLoad[pi][1], r.PhaseLoad[pi][0])
	}
	if r.Imbalance[computeEvent] != r.PhaseLoad[pi][1]-r.PhaseLoad[pi][0] {
		t.Fatalf("event imbalance = %d, want load spread", r.Imbalance[computeEvent])
	}
}

func TestBlockMetricTakesMax(t *testing.T) {
	tr := twoChareTrace(t)
	dur := tr.Table().SubDur
	byBlock := BlockMetric(tr, dur)
	if byBlock[1] != 70 {
		t.Fatalf("block 1 metric = %d, want max sub-block 70", byBlock[1])
	}
}

// Property: sub-block durations are always non-negative and sum to block
// durations on randomized traces.
func TestSubBlockInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		tr := randTrace(rng)
		dur := tr.Table().SubDur
		for _, d := range dur {
			if d < 0 {
				t.Fatal("negative sub-block duration")
			}
		}
		for bi := range tr.Blocks {
			blk := &tr.Blocks[bi]
			if len(blk.Events) == 0 {
				continue
			}
			var sum trace.Time
			for _, e := range blk.Events {
				sum += dur[e]
			}
			if sum != blk.Duration() {
				t.Fatalf("block %d: sum %d != duration %d", bi, sum, blk.Duration())
			}
		}
	}
}

// randTrace is a light random trace generator (chain topology) for metric
// invariants.
func randTrace(rng *rand.Rand) *trace.Trace {
	n := 2 + rng.Intn(5)
	b := trace.NewBuilder(n)
	e := b.AddEntry("work")
	chares := make([]trace.ChareID, n)
	for i := range chares {
		chares[i] = b.AddChare("c", 0, i, trace.PE(i))
	}
	clock := make([]trace.Time, n)
	var prev trace.MsgID = trace.NoMsg
	var prevTime trace.Time
	hops := 3 + rng.Intn(10)
	for h := 0; h < hops; h++ {
		c := rng.Intn(n)
		begin := clock[c]
		if prev != trace.NoMsg && prevTime+1 > begin {
			begin = prevTime + 1
		}
		b.BeginBlock(chares[c], trace.PE(c), e, begin)
		t := begin
		if prev != trace.NoMsg {
			b.Recv(chares[c], prev, t)
		}
		t += trace.Time(1 + rng.Intn(50))
		m := b.NewMsg()
		b.Send(chares[c], m, t)
		end := t + trace.Time(rng.Intn(20))
		b.EndBlock(chares[c], end)
		clock[c] = end + 1
		prev, prevTime = m, t
	}
	// Terminal recv to match the last send.
	c := rng.Intn(n)
	begin := clock[c]
	if prevTime+1 > begin {
		begin = prevTime + 1
	}
	b.BeginBlock(chares[c], trace.PE(c), e, begin)
	b.Recv(chares[c], prev, begin)
	b.EndBlock(chares[c], begin+trace.Time(rng.Intn(10)))
	return b.MustFinish()
}
