package core_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"charmtrace/internal/apps/jacobi"
	"charmtrace/internal/apps/lassen"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
	"charmtrace/internal/tracefile"
)

func encodeToBytes(t *testing.T, s *core.Structure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.EncodeStructure(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStructureCodecRoundTrip: encoding is canonical across parallelism and
// decoding reproduces every field the serving layer reads.
func TestStructureCodecRoundTrip(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	seq, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	par, err := core.Extract(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeToBytes(t, seq)
	if !bytes.Equal(enc, encodeToBytes(t, par)) {
		t.Fatal("encoded structure differs between Parallelism 1 and 4")
	}

	dec, fp, err := core.DecodeStructure(bytes.NewReader(enc), tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := opt.Fingerprint(); fp != want {
		t.Errorf("decoded fingerprint %q, want %q", fp, want)
	}
	if !reflect.DeepEqual(dec.Phases, seq.Phases) {
		t.Error("phases differ after round trip")
	}
	if !reflect.DeepEqual(dec.DAG.Adj, seq.DAG.Adj) {
		t.Error("DAG differs after round trip")
	}
	for name, pair := range map[string][2][]int32{
		"PhaseOf":   {dec.PhaseOf, seq.PhaseOf},
		"LocalStep": {dec.LocalStep, seq.LocalStep},
		"Step":      {dec.Step, seq.Step},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differs after round trip", name)
		}
	}
	for c := range tr.Chares {
		if !reflect.DeepEqual(dec.EventsOfChare(trace.ChareID(c)), seq.EventsOfChare(trace.ChareID(c))) {
			t.Errorf("chare %d timeline differs after round trip", c)
		}
	}
	if err := dec.Validate(); err != nil {
		t.Errorf("decoded structure fails validation: %v", err)
	}
	// Decoding is deterministic end to end: re-encoding behaves identically
	// when driven through a second fresh extraction.
	if !bytes.Equal(enc, encodeToBytes(t, seq)) {
		t.Error("encoding is not deterministic across calls")
	}
}

// TestStructureSummaryMatchesFullDecode: the streaming summary decode
// reports exactly what the full decode (and a fresh extraction) would for
// every field the /structure response renders — the invariant that lets
// charmd serve the phase table from disk without reconstructing per-event
// arrays.
func TestStructureSummaryMatchesFullDecode(t *testing.T) {
	for _, w := range []struct {
		name string
		gen  func() (*trace.Trace, error)
		opt  core.Options
	}{
		{"jacobi", func() (*trace.Trace, error) { return jacobi.Trace(jacobi.DefaultConfig()) }, core.DefaultOptions()},
		{"lassen", func() (*trace.Trace, error) { return lassen.CharmTrace(lassen.DefaultConfig()) }, core.DefaultOptions()},
	} {
		t.Run(w.name, func(t *testing.T) {
			tr, err := w.gen()
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Index(); err != nil {
				t.Fatal(err)
			}
			s, err := core.Extract(tr, w.opt)
			if err != nil {
				t.Fatal(err)
			}
			enc := encodeToBytes(t, s)
			sum, err := core.DecodeStructureSummary(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if sum.Fingerprint != w.opt.Fingerprint() {
				t.Errorf("summary fingerprint %q, want %q", sum.Fingerprint, w.opt.Fingerprint())
			}
			if sum.NumEvents != len(tr.Events) || sum.NumChares != len(tr.Chares) {
				t.Errorf("summary counts %d events/%d chares, want %d/%d",
					sum.NumEvents, sum.NumChares, len(tr.Events), len(tr.Chares))
			}
			if len(sum.Phases) != s.NumPhases() {
				t.Fatalf("summary has %d phases, want %d", len(sum.Phases), s.NumPhases())
			}
			for i := range sum.Phases {
				ps, p := sum.Phases[i], &s.Phases[i]
				want := core.PhaseSummary{
					Runtime: p.Runtime, Chares: len(p.Chares), Events: len(p.Events),
					MaxLocalStep: p.MaxLocalStep, Offset: p.Offset, Leap: p.Leap,
				}
				if ps != want {
					t.Errorf("phase %d summary %+v, want %+v", i, ps, want)
				}
			}
			if sum.DAGEdges != s.DAG.NumEdges() {
				t.Errorf("summary DAG edges %d, want %d", sum.DAGEdges, s.DAG.NumEdges())
			}
			if sum.MaxStep != s.MaxStep() {
				t.Errorf("summary max step %d, want %d", sum.MaxStep, s.MaxStep())
			}
		})
	}
}

// TestStructureSummaryErrors: the summary decode rejects what the full
// decode would — the two share their parse up to the per-event arrays, so a
// phase table or DAG out of range is refused by both.
func TestStructureSummaryErrors(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeToBytes(t, s)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"truncated header", enc[:16]},
		{"bad magic", []byte("XXXXjunk")},
		{"leap out of range", outOfRangeLeap(t, tr)},
		{"edge target out of range", outOfRangeEdge(t, tr)},
	} {
		if _, err := core.DecodeStructureSummary(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: summarized without error", c.name)
		}
		if _, _, err := core.DecodeStructure(bytes.NewReader(c.data), tr); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// TestEncodersDoNotAllocatePerValue is the tripwire for a per-value
// allocation creeping back into the structure and trace encoders: four times
// the events may cost nothing more than a few constant allocations.
func TestEncodersDoNotAllocatePerValue(t *testing.T) {
	allocs := func(iterations int) (structure, binary float64, events int) {
		cfg := jacobi.DefaultConfig()
		cfg.Grid, cfg.Iterations = 8, iterations
		tr := jacobi.MustTrace(cfg)
		s, err := core.Extract(tr, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		structure = testing.AllocsPerRun(10, func() {
			if err := core.EncodeStructure(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		})
		binary = testing.AllocsPerRun(10, func() {
			if err := tracefile.WriteBinary(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
		return structure, binary, len(tr.Events)
	}
	fewS, fewB, fewEvents := allocs(2)
	manyS, manyB, manyEvents := allocs(8)
	if manyEvents < 3*fewEvents {
		t.Fatalf("8 iterations have %d events against %d for 2: not a scaling test", manyEvents, fewEvents)
	}
	if manyS-fewS > 4 {
		t.Errorf("EncodeStructure: %.0f allocations for %d events, %.0f for %d: the count scales with events", fewS, fewEvents, manyS, manyEvents)
	}
	if manyB-fewB > 4 {
		t.Errorf("WriteBinary: %.0f allocations for %d events, %.0f for %d: the count scales with events", fewB, fewEvents, manyB, manyEvents)
	}
}

// TestStructureDecodeErrors: corruption and trace mismatches are rejected,
// never silently accepted.
func TestStructureDecodeErrors(t *testing.T) {
	tr, err := jacobi.Trace(jacobi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Extract(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeToBytes(t, s)

	if _, _, err := core.DecodeStructure(bytes.NewReader(enc[:len(enc)/2]), tr); err == nil {
		t.Error("truncated structure decoded without error")
	}
	if _, _, err := core.DecodeStructure(bytes.NewReader([]byte("CSTRjunk")), tr); err == nil {
		t.Error("garbage body decoded without error")
	}
	bad := append([]byte("XXXX"), enc[4:]...)
	if _, _, err := core.DecodeStructure(bytes.NewReader(bad), tr); err == nil {
		t.Error("bad magic decoded without error")
	}
	other, err := lassen.CharmTrace(lassen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Index(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.DecodeStructure(bytes.NewReader(enc), other); err == nil {
		t.Error("structure decoded against a mismatched trace")
	}
}
