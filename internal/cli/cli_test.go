package cli

import (
	"fmt"
	"strings"
	"testing"

	"charmtrace/internal/apps/faultsim"
	"charmtrace/internal/apps/lbmigrate"
	"charmtrace/internal/apps/lulesh"
	"charmtrace/internal/apps/mergetree"
	"charmtrace/internal/core"
	"charmtrace/internal/trace"
)

func TestAllWorkloadsGenerate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := Params{}
			if name == "mergetree" {
				p.Scale = 64 // keep the 1,024-process default out of unit tests
			}
			tr, opt, err := Generate(name, p)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if len(tr.Events) == 0 {
				t.Fatal("empty trace")
			}
			s, err := core.Extract(tr, opt)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGenerateParamRanges runs every workload at scale and iterations -1, 1
// and 3 (not a multiple of mergetree's 32 processes). Generate must not
// panic, and must return a non-empty trace or an error naming the workload
// and the field; -1 is always an error.
func TestGenerateParamRanges(t *testing.T) {
	for _, name := range Names() {
		for _, field := range []string{"scale", "iterations"} {
			for _, v := range []int{-1, 1, 3} {
				t.Run(fmt.Sprintf("%s/%s=%d", name, field, v), func(t *testing.T) {
					p := Params{Scale: v}
					if field == "iterations" {
						p = Params{Iterations: v}
					}
					if name == "mergetree" && field == "iterations" {
						p.Scale = 64 // keep the 1,024-process default out of unit tests
					}
					tr, _, err := Generate(name, p)
					switch {
					case err != nil:
						if msg := err.Error(); !strings.Contains(msg, "workload "+name+":") || !strings.Contains(msg, field) {
							t.Fatalf("error %q does not name the workload and %s", msg, field)
						}
					case v < 0:
						t.Fatalf("%s %d accepted", field, v)
					case len(tr.Events) == 0:
						t.Fatalf("%s %d gave an empty trace", field, v)
					}
				})
			}
		}
	}
}

// TestAppsRejectUnrunnableConfigs: the app generators return an error for a
// size they cannot run instead of panicking.
func TestAppsRejectUnrunnableConfigs(t *testing.T) {
	luleshCfg, lbCfg, faultCfg, treeCfg := lulesh.DefaultConfig(), lbmigrate.DefaultConfig(), faultsim.DefaultConfig(), mergetree.DefaultConfig()
	luleshCfg.Grid, lbCfg.Chares, faultCfg.Chares, treeCfg.Procs = -3, -3, -3, 48
	for name, gen := range map[string]func() (*trace.Trace, error){
		"lulesh":    func() (*trace.Trace, error) { return lulesh.CharmTrace(luleshCfg) },
		"lbmigrate": func() (*trace.Trace, error) { return lbmigrate.Trace(lbCfg) },
		"faultsim":  func() (*trace.Trace, error) { return faultsim.Trace(faultCfg) },
		"mergetree": func() (*trace.Trace, error) { return mergetree.Trace(treeCfg) },
	} {
		if _, err := gen(); err == nil || !strings.HasPrefix(err.Error(), name+":") {
			t.Errorf("%s: error %v, want one naming the app", name, err)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, _, err := Generate("no-such-app", Params{})
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v, want unknown workload", err)
	}
}

func TestParamOverrides(t *testing.T) {
	small, _, err := Generate("jacobi", Params{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := Generate("jacobi", Params{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Events) <= len(small.Events) {
		t.Fatal("iteration override had no effect")
	}
	seeded, _, err := Generate("jacobi", Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := Generate("jacobi", Params{})
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range def.Events {
		if i < len(seeded.Events) && def.Events[i].Time != seeded.Events[i].Time {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("seed override had no effect")
	}
}

func TestNoReductionTracing(t *testing.T) {
	with, _, err := Generate("jacobi", Params{})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := Generate("jacobi", Params{NoReductionTracing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(without.Events) >= len(with.Events) {
		t.Fatal("NoReductionTracing did not reduce traced events")
	}
}

func TestDescribeCoversAllNames(t *testing.T) {
	d := Describe()
	for _, n := range Names() {
		if !strings.Contains(d, n) {
			t.Fatalf("Describe missing %q", n)
		}
	}
}
