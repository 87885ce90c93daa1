package trace

import (
	"strings"
	"testing"
)

// tinyTrace builds a two-chare, two-PE trace: chare 0 sends to chare 1.
func tinyTrace(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder(2)
	eMain := b.AddEntry("main")
	eRecv := b.AddEntry("recvResult")
	arr := ArrayID(0)
	c0 := b.AddChare("arr[0]", arr, 0, 0)
	c1 := b.AddChare("arr[1]", arr, 1, 1)

	m := b.NewMsg()
	b.BeginBlock(c0, 0, eMain, 0)
	b.Send(c0, m, 5)
	b.EndBlock(c0, 10)

	b.BeginBlock(c1, 1, eRecv, 20)
	b.Recv(c1, m, 20)
	b.EndBlock(c1, 30)

	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return tr
}

func TestBuilderRoundTrip(t *testing.T) {
	tr := tinyTrace(t)
	if got := len(tr.Chares); got != 2 {
		t.Fatalf("chares = %d, want 2", got)
	}
	if got := len(tr.Blocks); got != 2 {
		t.Fatalf("blocks = %d, want 2", got)
	}
	if got := len(tr.Events); got != 2 {
		t.Fatalf("events = %d, want 2", got)
	}
	if !tr.Indexed() {
		t.Fatal("trace not indexed after Finish")
	}
}

func TestMessageMatching(t *testing.T) {
	tr := tinyTrace(t)
	send := tr.Events[0]
	if send.Kind != Send {
		t.Fatalf("event 0 kind = %v, want send", send.Kind)
	}
	if got := tr.SendOf(send.Msg); got != send.ID {
		t.Fatalf("SendOf(%d) = %d, want %d", send.Msg, got, send.ID)
	}
	recvs := tr.RecvsOf(send.Msg)
	if len(recvs) != 1 || tr.Events[recvs[0]].Kind != Recv {
		t.Fatalf("RecvsOf(%d) = %v, want one recv", send.Msg, recvs)
	}
	if tr.SendOf(MsgID(999)) != NoEvent {
		t.Fatal("SendOf(unknown) should be NoEvent")
	}
}

func TestBlocksOfChareOrdered(t *testing.T) {
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c := b.AddChare("solo", NoArray, -1, 0)
	// Create blocks out of time order: later-created block begins earlier.
	b.BeginBlock(c, 0, e, 200)
	b.EndBlock(c, 210)
	b.BeginBlock(c, 0, e, 100)
	b.EndBlock(c, 110)
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	ids := tr.BlocksOfChare(c)
	if len(ids) != 2 {
		t.Fatalf("blocks = %d, want 2", len(ids))
	}
	if tr.Blocks[ids[0]].Begin > tr.Blocks[ids[1]].Begin {
		t.Fatal("BlocksOfChare not ordered by begin time")
	}
}

func TestValidateRejectsOverlappingPEBlocks(t *testing.T) {
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c0 := b.AddChare("a", NoArray, -1, 0)
	c1 := b.AddChare("b", NoArray, -1, 0)
	b.BeginBlock(c0, 0, e, 0)
	b.EndBlock(c0, 100)
	b.BeginBlock(c1, 0, e, 50) // overlaps block of c0 on PE 0
	b.EndBlock(c1, 150)
	_, err := b.Finish()
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("Finish err = %v, want overlap error", err)
	}
}

func TestValidateRejectsRecvWithoutSend(t *testing.T) {
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c := b.AddChare("a", NoArray, -1, 0)
	b.BeginBlock(c, 0, e, 0)
	b.Recv(c, MsgID(7), 0) // never sent
	b.EndBlock(c, 10)
	_, err := b.Finish()
	if err == nil || !strings.Contains(err.Error(), "never sent") {
		t.Fatalf("Finish err = %v, want never-sent error", err)
	}
}

func TestFinishRejectsOpenBlocks(t *testing.T) {
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c := b.AddChare("a", NoArray, -1, 0)
	b.BeginBlock(c, 0, e, 0)
	_, err := b.Finish()
	if err == nil || !strings.Contains(err.Error(), "open blocks") {
		t.Fatalf("Finish err = %v, want open-blocks error", err)
	}
}

func TestBeginBlockPanicsWhenOpen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nested BeginBlock")
		}
	}()
	b := NewBuilder(1)
	e := b.AddEntry("work")
	c := b.AddChare("a", NoArray, -1, 0)
	b.BeginBlock(c, 0, e, 0)
	b.BeginBlock(c, 0, e, 5)
}

func TestBroadcastHasManyRecvs(t *testing.T) {
	b := NewBuilder(1)
	e := b.AddEntry("bcast")
	root := b.AddChare("root", NoArray, -1, 0)
	var kids []ChareID
	for i := 0; i < 3; i++ {
		kids = append(kids, b.AddChare("kid", ArrayID(0), i, 0))
	}
	m := b.NewMsg()
	b.BeginBlock(root, 0, e, 0)
	b.Send(root, m, 0)
	b.EndBlock(root, 1)
	for i, k := range kids {
		begin := Time(10 + i)
		b.BeginBlock(k, 0, e, begin)
		b.Recv(k, m, begin)
		b.EndBlock(k, begin)
	}
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := len(tr.RecvsOf(m)); got != 3 {
		t.Fatalf("broadcast recvs = %d, want 3", got)
	}
}

func TestSpanAndCounts(t *testing.T) {
	tr := tinyTrace(t)
	lo, hi := tr.Span()
	if lo != 0 || hi != 30 {
		t.Fatalf("Span = (%d,%d), want (0,30)", lo, hi)
	}
	if tr.CountKind(Send) != 1 || tr.CountKind(Recv) != 1 {
		t.Fatalf("counts = %d sends, %d recvs; want 1,1", tr.CountKind(Send), tr.CountKind(Recv))
	}
}

func TestIdleRecords(t *testing.T) {
	b := NewBuilder(2)
	e := b.AddEntry("work")
	c := b.AddChare("a", NoArray, -1, 1)
	b.BeginBlock(c, 1, e, 100)
	b.EndBlock(c, 110)
	b.Idle(1, 40, 100)
	b.Idle(1, 10, 10) // zero length: dropped
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(tr.Idles) != 1 {
		t.Fatalf("idles = %d, want 1 (zero-length dropped)", len(tr.Idles))
	}
	if idle := tr.Idles[0]; idle.PE != 1 || idle.End != 100 || idle.Duration() != 60 {
		t.Fatalf("idle = %+v, want 60ns on PE 1 ending at 100", idle)
	}
}

func TestApplicationChares(t *testing.T) {
	b := NewBuilder(1)
	b.AddChare("app", NoArray, -1, 0)
	b.AddRuntimeChare("redmgr", 0)
	tr, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	apps := tr.ApplicationChares()
	if len(apps) != 1 || apps[0] != 0 {
		t.Fatalf("ApplicationChares = %v, want [0]", apps)
	}
	if !tr.IsRuntimeChare(1) || tr.IsRuntimeChare(0) {
		t.Fatal("runtime flags wrong")
	}
}
