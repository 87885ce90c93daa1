package core_test

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"charmtrace/internal/core"
	"charmtrace/internal/lod"
	"charmtrace/internal/query"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

// fuzzSeeds returns a small fixed trace — the golden jacobi-2x2 file the
// tracefile tests pin — and its structure encoded under both presets.
func fuzzSeeds(f *testing.F) (*trace.Trace, [][]byte) {
	in, err := os.Open("../tracefile/testdata/jacobi-2x2.trace.bin")
	if err != nil {
		f.Fatal(err)
	}
	defer in.Close()
	tr, err := tracefile.ReadBinary(in)
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, opt := range []core.Options{core.DefaultOptions(), core.MessagePassingOptions()} {
		s, err := core.Extract(tr, opt)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.EncodeStructure(&buf, s); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return tr, seeds
}

// phaselessEvent0 returns tr's structure encoded with event 0 left without a
// phase (PhaseOf, LocalStep and Step all -1, listed by no phase): bytes the
// decoder admitted until ISSUE 27 although Extract never emits them and
// Validate refuses them, and on which lod.Build indexed a table at -1.
func phaselessEvent0(t testing.TB, tr *trace.Trace) []byte {
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ph := &s.Phases[s.PhaseOf[0]]
	ph.Events = slices.DeleteFunc(slices.Clone(ph.Events), func(e trace.EventID) bool { return e == 0 })
	s.PhaseOf[0], s.LocalStep[0], s.Step[0] = -1, -1, -1
	var buf bytes.Buffer
	if err := core.EncodeStructure(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsPhaselessEvent: the decoder refuses an event without a
// phase, naming it, so no view is ever built on one.
func TestDecodeRejectsPhaselessEvent(t *testing.T) {
	in, err := os.Open("../tracefile/testdata/jacobi-2x2.trace.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	tr, err := tracefile.ReadBinary(in)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = core.DecodeStructureTable(phaselessEvent0(t, tr), tr.Table())
	if err == nil || !strings.Contains(err.Error(), "event 0 ") {
		t.Fatalf("decode of a structure whose event 0 has no phase: err = %v, want one naming event 0", err)
	}
}

// allocatedBy reports the bytes f allocated: the least of three runs, since
// the counter is the process's and a fuzz worker has other goroutines.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecodeStructure: bytes a peer or a disk hands us, decoded against the
// table alone. The decoder never panics and never allocates more than a
// constant multiple of its input; what it accepts holds only in-range ids,
// re-encodes to the bytes it came from and decodes again to the same
// structure, and every view the server builds on it (index with its §4
// report, pyramid with its clustering, a query and an LOD read) runs
// without a trace and without a panic.
func FuzzDecodeStructure(f *testing.F) {
	tr, seeds := fuzzSeeds(f)
	tab := tr.Table()
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(append(append([]byte(nil), s[:len(s)-3]...), 0x7f, 0x7f, 0x7f))
	}
	f.Add([]byte("CSTR\x01\x00\xff\xff\xff\xff\x0f\x00"))
	f.Add(phaselessEvent0(f, tr))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *core.Structure
		var err error
		if got := allocatedBy(func() { s, _, err = core.DecodeStructureTable(data, tab) }); got > 1<<16+256*uint64(len(data)) {
			t.Fatalf("DecodeStructureTable allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		if s.Trace != nil || s.Table() != tab {
			t.Fatal("decoded structure does not hold exactly its table")
		}
		inRange := func(what string, v, n int) {
			if v < 0 || v >= n {
				t.Fatalf("accepted structure holds %s %d outside [0,%d)", what, v, n)
			}
		}
		for i := range s.Phases {
			for _, c := range s.Phases[i].Chares {
				inRange("phase chare", int(c), tab.NumChares())
			}
			for _, e := range s.Phases[i].Events {
				inRange("phase event", int(e), tab.NumEvents())
			}
			for _, q := range s.DAG.Adj[i] {
				inRange("edge target", int(q), len(s.Phases))
			}
		}
		for e, p := range s.PhaseOf {
			inRange("phase", int(p), len(s.Phases))
			inRange("step", int(s.Step[e]), tab.NumEvents()+len(s.Phases)+1)
		}
		for c := range tab.Name {
			for _, e := range s.EventsOfChare(trace.ChareID(c)) {
				inRange("timeline event", int(e), tab.NumEvents())
			}
		}
		var again bytes.Buffer
		if err := core.EncodeStructure(&again, s); err != nil {
			t.Fatal(err)
		}
		s2, _, err := core.DecodeStructureTable(again.Bytes(), tab)
		if err != nil || !reflect.DeepEqual(s2.Phases, s.Phases) || !reflect.DeepEqual(s2.Step, s.Step) {
			t.Fatalf("accepted structure does not round-trip (err %v)", err)
		}
		idx := query.BuildIndex(s)
		if _, err := query.Run(t.Context(), idx, query.Spec{Select: query.SelectSteps}); err != nil {
			t.Fatalf("query on an accepted structure: %v", err)
		}
		if _, err := lod.Build(s, idx.Report).Query(lod.Spec{Resolution: 4}, nil); err != nil {
			t.Fatalf("lod on an accepted structure: %v", err)
		}
	})
}

// FuzzDecodeStructureSummary: the streaming summary decode — which has not
// even a table to lean on — never panics and never lets a claimed count
// size an allocation; what it accepts agrees with the full decode whenever
// that accepts the same bytes.
func FuzzDecodeStructureSummary(f *testing.F) {
	tr, seeds := fuzzSeeds(f)
	tab := tr.Table()
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:40])
	}
	f.Add([]byte("CSTR\x01\x00\xff\xff\xff\xff\x07\xff\xff\xff\xff\x07\xff\xff\xff\xff\x07")) // claims 2^31-1 events, chares and phases
	f.Fuzz(func(t *testing.T, data []byte) {
		var sum *core.StructureSummary
		var err error
		if got := allocatedBy(func() { sum, err = core.DecodeStructureSummary(bytes.NewReader(data)) }); got > 1<<17+64*uint64(len(data)) {
			t.Fatalf("DecodeStructureSummary allocated %d bytes for a %d-byte input", got, len(data))
		}
		if err != nil {
			return
		}
		s, fp, err := core.DecodeStructureTable(data, tab)
		if err != nil {
			return
		}
		if sum.Fingerprint != fp || sum.NumEvents != len(s.Step) || len(sum.Phases) != len(s.Phases) ||
			sum.MaxStep != s.MaxStep() || sum.DAGEdges != s.DAG.NumEdges() {
			t.Fatalf("summary %+v disagrees with the full decode", sum)
		}
	})
}
