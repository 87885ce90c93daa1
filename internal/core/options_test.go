package core

import (
	"math/rand"
	"runtime"
	"testing"

	"charmtrace/internal/trace"
)

// TestParallelSteppingIdentical: the parallel ordering stage must produce
// exactly the serial result.
func TestParallelSteppingIdentical(t *testing.T) {
	// Exercise real goroutine interleaving even on single-proc machines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 25; i++ {
		tr := randomTrace(rng)
		opt := DefaultOptions()
		opt.Parallelism = 1
		serial, err := Extract(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Parallelism = 4
		par, err := Extract(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Validate(); err != nil {
			t.Fatal(err)
		}
		if serial.NumPhases() != par.NumPhases() {
			t.Fatalf("phase counts differ: %d vs %d", serial.NumPhases(), par.NumPhases())
		}
		for e := range tr.Events {
			if serial.Step[e] != par.Step[e] || serial.PhaseOf[e] != par.PhaseOf[e] ||
				serial.LocalStep[e] != par.LocalStep[e] {
				t.Fatalf("event %d differs between serial and parallel stepping", e)
			}
		}
		for c := range tr.Chares {
			a, b := serial.EventsOfChare(trace.ChareID(c)), par.EventsOfChare(trace.ChareID(c))
			if len(a) != len(b) {
				t.Fatalf("chare %d timeline lengths differ", c)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("chare %d timeline differs at %d", c, i)
				}
			}
		}
	}
}

// TestChareRankFlipsTieBreak: the Figure 7 tie-break follows the supplied
// topology rank instead of raw chare IDs.
func TestChareRankFlipsTieBreak(t *testing.T) {
	// Chares A (0) and B (1) both send to Z (2) from phase-source blocks at
	// w=0; Z's two receives tie at w=1, so their order is decided by the
	// invoking chare.
	build := func() *trace.Trace {
		b := trace.NewBuilder(3)
		e := b.AddEntry("work")
		a := b.AddChare("A", trace.NoArray, -1, 0)
		bb := b.AddChare("B", trace.NoArray, -1, 1)
		z := b.AddChare("Z", trace.NoArray, -1, 2)
		mA, mB := b.NewMsg(), b.NewMsg()
		b.BeginBlock(a, 0, e, 0)
		b.Send(a, mA, 0)
		b.EndBlock(a, 1)
		b.BeginBlock(bb, 1, e, 0)
		b.Send(bb, mB, 0)
		b.EndBlock(bb, 1)
		b.BeginBlock(z, 2, e, 10)
		b.Recv(z, mB, 10) // B's message arrives first physically
		b.EndBlock(z, 11)
		b.BeginBlock(z, 2, e, 12)
		b.Recv(z, mA, 12)
		b.EndBlock(z, 13)
		return b.MustFinish()
	}

	tr := build()
	z := trace.ChareID(2)

	// Default: invoker chare ID orders A's message first.
	s, err := Extract(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := s.EventsOfChare(z)
	if tr.Events[seq[0]].Msg != 0 {
		t.Fatalf("default tie-break should order A's message first, got msg %d", tr.Events[seq[0]].Msg)
	}

	// Rank B before A: B's message must now come first.
	opt := DefaultOptions()
	opt.ChareRank = []int32{1, 0, 2}
	s, err = Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	seq = s.EventsOfChare(z)
	if tr.Events[seq[0]].Msg != 1 {
		t.Fatalf("ranked tie-break should order B's message first, got msg %d", tr.Events[seq[0]].Msg)
	}
}
