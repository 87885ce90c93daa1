package main

import (
	"strings"
	"testing"

	"charmtrace"
)

// smallPool is one small trace of every pool app, extracted.
func smallPool(t *testing.T) ([]*traceInput, []*charmtrace.Structure) {
	t.Helper()
	var ins []*traceInput
	var ss []*charmtrace.Structure
	for i, spec := range K.PoolApps {
		spec.Scale, spec.Iters = 0, 0
		if spec.App == "mergetree" {
			spec.Scale = 64
		}
		in, err := generate(spec, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		s, err := charmtrace.Extract(in.tr, in.opts)
		if err != nil {
			t.Fatal(err)
		}
		ins, ss = append(ins, in), append(ss, s)
	}
	return ins, ss
}

func TestCheckerAcceptsEveryPoolApp(t *testing.T) {
	ins, ss := smallPool(t)
	for i, in := range ins {
		if err := checkStructure(in.tr, ss[i]); err != nil {
			t.Errorf("%s: %v", in.spec.Name, err)
		}
	}
}

// matchedPair finds a receive with a recorded send.
func matchedPair(t *testing.T, tr *charmtrace.Trace) (send, recv int) {
	t.Helper()
	for e := range tr.Events {
		if s := tr.MatchingSend(charmtrace.EventID(e)); s >= 0 {
			return int(s), e
		}
	}
	t.Fatal("trace has no matched message")
	return 0, 0
}

func TestCheckerRejectsCorruptedStructures(t *testing.T) {
	ins, ss := smallPool(t)
	in, good := ins[0], ss[0]
	send, recv := matchedPair(t, in.tr)

	corrupt := func(mutate func(s *charmtrace.Structure)) error {
		s := *good
		s.Step = append([]int32(nil), good.Step...)
		s.PhaseOf = append([]int32(nil), good.PhaseOf...)
		mutate(&s)
		return checkStructure(in.tr, &s)
	}
	cases := []struct {
		name   string
		mutate func(s *charmtrace.Structure)
		want   string
	}{
		{"receive stepped at its send", func(s *charmtrace.Structure) { s.Step[recv] = s.Step[send] }, "is not after its send"},
		{"receive moved to another phase", func(s *charmtrace.Structure) { s.PhaseOf[recv] = (s.PhaseOf[recv] + 1) % int32(len(s.Phases)) }, "different phases"},
		{"serial block order reversed", func(s *charmtrace.Structure) {
			for _, b := range in.tr.Blocks {
				if len(b.Events) >= 2 {
					a, z := b.Events[0], b.Events[len(b.Events)-1]
					s.Step[a], s.Step[z] = s.Step[z], s.Step[a]
					return
				}
			}
			t.Fatal("no serial block with two events")
		}, ""},
		{"event without a step", func(s *charmtrace.Structure) { s.Step[recv] = -1 }, "no position"},
		{"truncated placement", func(s *charmtrace.Structure) { s.Step = s.Step[:len(s.Step)-1] }, "places"},
	}
	for _, c := range cases {
		err := corrupt(c.mutate)
		if err == nil {
			t.Errorf("%s: the checker accepted it", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected with %q, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestPlacementFromServedRows(t *testing.T) {
	ins, ss := smallPool(t)
	in, s := ins[0], ss[0]
	send, recv := matchedPair(t, in.tr)
	row := func(e int, step int32) string {
		ev := in.tr.Events[e]
		return `{"event":` + itoa(e) + `,"chare":` + itoa(int(ev.Chare)) + `,"kind":"` + ev.Kind.String() +
			`","phase":` + itoa(int(s.PhaseOf[e])) + `,"step":` + itoa(int(step)) + `}`
	}
	good := `{"rows":[` + row(send, s.Step[send]) + `,` + row(recv, s.Step[recv]) + `]}`
	p := newPlacement(len(in.tr.Events))
	if err := p.addResponse(in.tr, []byte(good)); err != nil {
		t.Fatal(err)
	}
	if err := p.check(in.tr); err != nil {
		t.Fatal(err)
	}
	// The same event answered at a different step by a later response.
	if err := p.addResponse(in.tr, []byte(`{"rows":[`+row(recv, s.Step[recv]+1)+`]}`)); err == nil {
		t.Error("a contradictory repeat answer was accepted")
	}
	// A causally impossible pair revealed across two responses.
	q := newPlacement(len(in.tr.Events))
	for _, body := range []string{`{"rows":[` + row(send, 7) + `]}`, `{"rows":[` + row(recv, 7) + `]}`} {
		if err := q.addResponse(in.tr, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.check(in.tr); err == nil {
		t.Error("a receive at its send's step was accepted")
	}
	// A row on the wrong chare.
	wrong := strings.Replace(row(send, s.Step[send]), `"chare":`, `"chare":9`, 1)
	if err := newPlacement(len(in.tr.Events)).addResponse(in.tr, []byte(`{"rows":[`+wrong+`]}`)); err == nil {
		t.Error("a row on the wrong chare was accepted")
	}
}

func itoa(n int) string { return joinInts([]int{n}) }
