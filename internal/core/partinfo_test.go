package core_test

import (
	"testing"

	"charmtrace/internal/cli"
	"charmtrace/internal/core"
)

// TestPartInfoMatchesPerEventScan: the §3.1.4 per-partition info, built from
// each atom's earliest event, equals the per-event definition on every call
// — Alg. 3's and every orderability round's — over every cli workload under
// both presets.
func TestPartInfoMatchesPerEventScan(t *testing.T) {
	for _, name := range cli.Names() {
		tr, _, err := cli.Generate(name, cli.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.Options{core.DefaultOptions(), core.MessagePassingOptions()} {
			calls, err := core.CheckPartInfo(tr, opt)
			if err != nil {
				t.Fatalf("%s (mp=%v): %v", name, opt.MessagePassing, err)
			}
			if want := 1 + btoi(opt.InferDependencies); calls < want {
				t.Fatalf("%s (mp=%v): %d calls checked, want at least %d", name, opt.MessagePassing, calls, want)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
