package core

import (
	"strings"
	"testing"

	"charmtrace/internal/telemetry"
)

func TestFingerprintCanonical(t *testing.T) {
	if got, want := DefaultOptions().Fingerprint(), MessagePassingOptions().Fingerprint(); got == want {
		t.Fatalf("default and message-passing options share fingerprint %q", got)
	}
	// Stable across calls and insensitive to execution-only knobs.
	base := DefaultOptions()
	fp := base.Fingerprint()
	variant := base
	variant.Parallelism = 7
	variant.Metrics = telemetry.NewRegistry()
	if got := variant.Fingerprint(); got != fp {
		t.Errorf("execution knobs changed fingerprint: %q vs %q", got, fp)
	}
	// Every semantic flag must move the fingerprint.
	for name, mutate := range map[string]func(*Options){
		"Reorder":             func(o *Options) { o.Reorder = !o.Reorder },
		"InferDependencies":   func(o *Options) { o.InferDependencies = !o.InferDependencies },
		"NeighborSerialMerge": func(o *Options) { o.NeighborSerialMerge = !o.NeighborSerialMerge },
		"MessagePassing":      func(o *Options) { o.MessagePassing = !o.MessagePassing },
		"ProcessOrderDeps":    func(o *Options) { o.ProcessOrderDeps = !o.ProcessOrderDeps },
		"ChareRank":           func(o *Options) { o.ChareRank = []int32{2, 0, 1} },
	} {
		o := base
		mutate(&o)
		if got := o.Fingerprint(); got == fp {
			t.Errorf("flipping %s did not change the fingerprint %q", name, fp)
		}
	}
	// Distinct ranks hash distinctly; empty (non-nil) differs from nil.
	a, b, c := base, base, base
	a.ChareRank = []int32{0, 1, 2}
	b.ChareRank = []int32{0, 2, 1}
	c.ChareRank = []int32{}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different ranks share a fingerprint")
	}
	if c.Fingerprint() == fp {
		t.Error("empty rank slice fingerprints like nil")
	}
	if !strings.HasPrefix(fp, "v1 ") {
		t.Errorf("fingerprint %q is not versioned", fp)
	}
}
