package trace

import (
	"math"
	"strings"
	"testing"
)

// directly constructed traces exercising validateShape/validateSemantics
// error branches that the Builder cannot produce.
func TestValidateShapeErrors(t *testing.T) {
	cases := []struct {
		name string
		tr   Trace
		want string
	}{
		{
			"zero PEs",
			Trace{},
			"NumPE",
		},
		{
			"chare id out of order",
			Trace{NumPE: 1, Chares: []Chare{{ID: 5}}},
			"has ID",
		},
		{
			"chare home out of range",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0, Home: 9}}},
			"out of range",
		},
		{
			"entry id out of order",
			Trace{NumPE: 1, Entries: []Entry{{ID: 3}}},
			"has ID",
		},
		{
			"block references unknown chare",
			Trace{NumPE: 1, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0, Chare: 7}}},
			"unknown chare",
		},
		{
			"block references unknown entry",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}},
				Blocks: []Block{{ID: 0, Chare: 0, Entry: 4}}},
			"unknown entry",
		},
		{
			"block pe out of range",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0, PE: 3}}},
			"out of range",
		},
		{
			"block ends before begin",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0, Begin: 10, End: 5}}},
			"before it begins",
		},
		{
			"event references unknown block",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Events: []Event{{ID: 0, Block: 9}}},
			"unknown block",
		},
		{
			"event id out of order",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0}},
				Events: []Event{{ID: 2, Block: 0}}},
			"has ID",
		},
		// Event and idle PEs index per-PE tables in metrics, profile and
		// skew; an unchecked one from an upload panicked there.
		{
			"event pe past the machine",
			Trace{NumPE: 2, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0}},
				Events: []Event{{ID: 0, Block: 0, PE: 2}}},
			"event 0 PE 2 out of range",
		},
		{
			"event pe negative",
			Trace{NumPE: 2, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0}},
				Events: []Event{{ID: 0, Block: 0, PE: -1}}},
			"event 0 PE -1 out of range",
		},
		{
			"idle pe past the machine",
			Trace{NumPE: 2, Idles: []Idle{{PE: 1, Begin: 0, End: 5}, {PE: 2, Begin: 0, End: 5}}},
			"idle 1 PE 2 out of range",
		},
		{
			"idle pe negative",
			Trace{NumPE: 2, Idles: []Idle{{PE: -3, Begin: 0, End: 5}}},
			"idle 0 PE -3 out of range",
		},
		{
			"idle ends before it begins",
			Trace{NumPE: 2, Idles: []Idle{{PE: 0, Begin: 9, End: 8}}},
			"idle 0 ends (8) before it begins (9)",
		},
		// |time| is bounded below 2^62 so that offsets, doubled sort keys and
		// the ±2^62 sentinels downstream cannot wrap: at the bound the
		// ordering stage used to return a different structure.
		{
			"event time at the bound",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0}},
				Events: []Event{{ID: 0, Block: 0, Time: 1 << 62}}},
			"event 0 time 4611686018427387904 out of range",
		},
		{
			"event time below the bound",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0}},
				Events: []Event{{ID: 0, Block: 0, Time: -1 << 62}}},
			"event 0 time -4611686018427387904 out of range",
		},
		{
			"block end at the bound",
			Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
				Blocks: []Block{{ID: 0, Begin: 5, End: 1 << 62}}},
			"block 0 span [5,4611686018427387904] out of range",
		},
		{
			"idle begin below the bound",
			Trace{NumPE: 1, Idles: []Idle{{PE: 0, Begin: math.MinInt64, End: 0}}},
			"idle 0 span [-9223372036854775808,0] out of range",
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			err := c.tr.Index()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Index err = %v, want containing %q", err, c.want)
			}
		})
	}
}

// TestTimesJustInsideTheBoundIndex: the largest and smallest legal times are
// accepted, in one trace (the widest legal span).
func TestTimesJustInsideTheBoundIndex(t *testing.T) {
	const lim = 1<<62 - 1
	tr := Trace{NumPE: 1, Chares: []Chare{{ID: 0}}, Entries: []Entry{{ID: 0}},
		Blocks: []Block{{ID: 0, Begin: -lim, End: lim, Events: []EventID{0, 1}}},
		Events: []Event{{ID: 0, Block: 0, Time: -lim, Msg: NoMsg}, {ID: 1, Block: 0, Time: lim, Msg: NoMsg}},
		Idles:  []Idle{{PE: 0, Begin: -lim, End: lim}}}
	if err := tr.Index(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateSemanticsErrors(t *testing.T) {
	base := func() Trace {
		return Trace{
			NumPE:   1,
			Chares:  []Chare{{ID: 0}, {ID: 1}},
			Entries: []Entry{{ID: 0}},
		}
	}

	t.Run("event outside block span", func(t *testing.T) {
		tr := base()
		tr.Blocks = []Block{{ID: 0, Begin: 0, End: 10, Events: []EventID{0}}}
		tr.Events = []Event{{ID: 0, Kind: Send, Time: 50, Block: 0}}
		if err := tr.Index(); err == nil || !strings.Contains(err.Error(), "outside block") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("events not time ordered in block", func(t *testing.T) {
		tr := base()
		tr.Blocks = []Block{{ID: 0, Begin: 0, End: 10, Events: []EventID{0, 1}}}
		tr.Events = []Event{
			{ID: 0, Kind: Send, Time: 8, Block: 0, Msg: 1},
			{ID: 1, Kind: Send, Time: 2, Block: 0, Msg: 2},
		}
		if err := tr.Index(); err == nil || !strings.Contains(err.Error(), "not time-ordered") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("event listed in wrong block", func(t *testing.T) {
		tr := base()
		tr.Blocks = []Block{
			{ID: 0, Begin: 0, End: 10, Events: []EventID{0}},
			{ID: 1, Begin: 20, End: 30},
		}
		tr.Events = []Event{{ID: 0, Kind: Send, Time: 5, Block: 1}}
		if err := tr.Index(); err == nil || !strings.Contains(err.Error(), "records block") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("event chare differs from block chare", func(t *testing.T) {
		tr := base()
		tr.Blocks = []Block{{ID: 0, Chare: 0, Begin: 0, End: 10, Events: []EventID{0}}}
		tr.Events = []Event{{ID: 0, Kind: Send, Chare: 1, Time: 5, Block: 0}}
		if err := tr.Index(); err == nil || !strings.Contains(err.Error(), "differs from its block") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate send of one message", func(t *testing.T) {
		tr := base()
		tr.Blocks = []Block{{ID: 0, Begin: 0, End: 10, Events: []EventID{0, 1}}}
		tr.Events = []Event{
			{ID: 0, Kind: Send, Time: 1, Block: 0, Msg: 7},
			{ID: 1, Kind: Send, Time: 2, Block: 0, Msg: 7},
		}
		if err := tr.Index(); err == nil || !strings.Contains(err.Error(), "sent twice") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestIndexIdempotent(t *testing.T) {
	tr := tinyTrace(t)
	if err := tr.Index(); err != nil {
		t.Fatalf("re-Index: %v", err)
	}
	if tr.SendOf(0) == NoEvent {
		t.Fatal("index lost after re-Index")
	}
}

func TestBlocksOfPEOrdered(t *testing.T) {
	tr := tinyTrace(t)
	for pe := 0; pe < tr.NumPE; pe++ {
		ids := tr.BlocksOfPE(PE(pe))
		for i := 1; i < len(ids); i++ {
			if tr.Blocks[ids[i-1]].Begin > tr.Blocks[ids[i]].Begin {
				t.Fatal("BlocksOfPE not ordered")
			}
		}
	}
}

func TestEventKindString(t *testing.T) {
	if Send.String() != "send" || Recv.String() != "recv" {
		t.Fatal("kind strings wrong")
	}
	if s := EventKind(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("unknown kind string %q", s)
	}
}

func TestIdleDuration(t *testing.T) {
	idle := Idle{PE: 0, Begin: 10, End: 35}
	if idle.Duration() != 25 {
		t.Fatal("idle duration wrong")
	}
	blk := Block{Begin: 5, End: 9}
	if blk.Duration() != 4 {
		t.Fatal("block duration wrong")
	}
}

func TestMustFinishPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c := b.AddChare("a", NoArray, -1, 0)
	b.BeginBlock(c, 0, e, 0) // left open
	_ = e
	b.MustFinish()
}

func TestEndBlockPanicsWithoutOpen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(1)
	b.AddChare("a", NoArray, -1, 0)
	b.EndBlock(0, 5)
}

func TestEventWithoutOpenBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(1)
	b.AddChare("a", NoArray, -1, 0)
	b.Send(0, 1, 5)
}
