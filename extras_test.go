package charmtrace

import (
	"bytes"
	"strings"
	"testing"
)

// TestPublicWindowAndProfile drives WindowTrace and BuildProfile through
// the public API.
func TestPublicWindowAndProfile(t *testing.T) {
	tr, err := JacobiTrace(DefaultJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.Span()
	mid := lo + (hi-lo)/2
	win, err := WindowTrace(tr, lo, mid)
	if err != nil {
		t.Fatalf("WindowTrace: %v", err)
	}
	if len(win.Blocks) == 0 || len(win.Blocks) >= len(tr.Blocks) {
		t.Fatalf("window blocks = %d of %d", len(win.Blocks), len(tr.Blocks))
	}
	p := BuildProfile(win)
	if len(p.Entries) == 0 {
		t.Fatal("empty profile")
	}
	if !strings.Contains(p.String(), "jacobi") {
		t.Fatal("profile missing entry names")
	}
	// The windowed trace still extracts.
	s, err := Extract(win, DefaultOptions())
	if err != nil {
		t.Fatalf("Extract on window: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicSkewWorkflow drives skew injection and correction through the
// public API.
func TestPublicSkewWorkflow(t *testing.T) {
	tr, err := JacobiTrace(DefaultJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]Time, tr.NumPE)
	for p := range offsets {
		offsets[p] = Time(p * 800)
	}
	skewed, err := InjectSkew(tr, offsets)
	if err != nil {
		t.Fatal(err)
	}
	if SkewViolations(skewed, 1) == 0 {
		t.Fatal("no violations injected")
	}
	fixed, applied, err := CorrectSkew(skewed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if SkewViolations(fixed, 1) != 0 {
		t.Fatal("violations remain after correction")
	}
	if len(applied) != tr.NumPE {
		t.Fatal("offsets wrong length")
	}
}

// TestPublicWrappersOnUnindexedTrace: the wrappers that match receives to
// sends return on a trace that was never indexed — no match is found, and
// CorrectSkew reports the missing index as an error — and answer as before
// once the same records are indexed.
func TestPublicWrappersOnUnindexedTrace(t *testing.T) {
	tr, err := JacobiTrace(DefaultJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]Time, tr.NumPE)
	for p := range offsets {
		offsets[p] = Time(p * 800)
	}
	skewed, err := InjectSkew(tr, offsets)
	if err != nil {
		t.Fatal(err)
	}
	raw := &Trace{NumPE: skewed.NumPE, Chares: skewed.Chares, Entries: skewed.Entries,
		Blocks: skewed.Blocks, Events: skewed.Events, Idles: skewed.Idles}
	if raw.Indexed() {
		t.Fatal("trace literal reports indexed")
	}
	if n := SkewViolations(raw, 1); n != 0 {
		t.Fatalf("SkewViolations on unindexed trace = %d, want 0", n)
	}
	if _, _, err := CorrectSkew(raw, 1); err == nil {
		t.Fatal("CorrectSkew on unindexed trace: no error")
	}
	p, want := BuildProfile(raw), BuildProfile(skewed)
	if p.CrossPE != 0 || p.Messages != want.Messages || len(p.Entries) != len(want.Entries) {
		t.Fatalf("BuildProfile on unindexed trace: messages %d cross %d, want %d and 0",
			p.Messages, p.CrossPE, want.Messages)
	}
	if want.CrossPE == 0 {
		t.Fatal("indexed profile counts no cross-processor messages")
	}

	if err := raw.Index(); err != nil {
		t.Fatal(err)
	}
	if got, want := SkewViolations(raw, 1), SkewViolations(skewed, 1); got != want || got == 0 {
		t.Fatalf("SkewViolations after Index = %d, want %d (> 0)", got, want)
	}
	if _, _, err := CorrectSkew(raw, 1); err != nil {
		t.Fatalf("CorrectSkew after Index: %v", err)
	}
	if got := BuildProfile(raw).CrossPE; got != want.CrossPE {
		t.Fatalf("CrossPE after Index = %d, want %d", got, want.CrossPE)
	}
}

// TestPublicCompareStructures drives the diff through the public API.
func TestPublicCompareStructures(t *testing.T) {
	cfg := DefaultJacobiConfig()
	trA, err := JacobiTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	trB, err := JacobiTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Extract(trA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(trB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := CompareStructures(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("seed change broke logical equivalence:\n%s", d)
	}
}

// TestPublicBinaryFormat drives the binary writer through the public API.
func TestPublicBinaryFormat(t *testing.T) {
	tr, err := JacobiTrace(DefaultJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf) // auto-detects binary
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatal("binary round trip via public API changed the trace")
	}
}
