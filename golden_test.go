package charmtrace

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// phasesByOffset lists the phase indices by global offset, ties by index.
func phasesByOffset(s *Structure) []int32 {
	order := make([]int32, len(s.Phases))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return s.Phases[order[i]].Offset < s.Phases[order[j]].Offset
	})
	return order
}

// phasePattern renders the recovered phase sequence compactly: 'a'/'R' for
// application/runtime phases in offset order, runs of concurrent same-kind
// phases collapsed with a multiplicity.
func phasePattern(s *Structure) string {
	order := phasesByOffset(s)
	var parts []string
	for i := 0; i < len(order); {
		j := i
		for j < len(order) &&
			s.Phases[order[j]].Offset == s.Phases[order[i]].Offset &&
			s.Phases[order[j]].Runtime == s.Phases[order[i]].Runtime {
			j++
		}
		sym := "a"
		if s.Phases[order[i]].Runtime {
			sym = "R"
		}
		if n := j - i; n > 1 {
			sym = fmt.Sprintf("%s*%d", sym, n)
		}
		parts = append(parts, sym)
		i = j
	}
	return strings.Join(parts, " ")
}

// TestGoldenStructures locks the recovered structure of every workload:
// any algorithm change that shifts phase counts, kinds, order or the global
// step extent shows up here. The simulators are deterministic, so these are
// exact.
func TestGoldenStructures(t *testing.T) {
	cases := []struct {
		name        string
		gen         func() (*Trace, error)
		opt         Options
		wantPattern string
		wantPhases  int
		wantMaxStep int32
	}{
		{
			name:        "jacobi-16",
			gen:         func() (*Trace, error) { return JacobiTrace(DefaultJacobiConfig()) },
			opt:         DefaultOptions(),
			wantPattern: "a R a R a R a R",
			wantPhases:  8,
			wantMaxStep: 107,
		},
		{
			name:        "lulesh-charm-8",
			gen:         func() (*Trace, error) { return LuleshCharmTrace(DefaultLuleshConfig()) },
			opt:         DefaultOptions(),
			wantPattern: "a R a a R a a R a a R a a R",
			wantPhases:  14,
			wantMaxStep: 120,
		},
		{
			name:        "lulesh-mpi-8",
			gen:         func() (*Trace, error) { return LuleshMPITrace(DefaultLuleshConfig()) },
			opt:         MessagePassingOptions(),
			wantPattern: "a a a a a a a a a a a a a a a a a a",
			wantPhases:  18,
			wantMaxStep: 87,
		},
		{
			name:        "lassen-charm-8",
			gen:         func() (*Trace, error) { return LassenCharmTrace(DefaultLassenConfig()) },
			opt:         DefaultOptions(),
			wantPattern: "a a*8 R a a*8 R a a*8 R a a*8 R a a*8 R a a*8 R",
			wantPhases:  60,
			wantMaxStep: 143,
		},
		{
			name:        "lassen-mpi-8",
			gen:         func() (*Trace, error) { return LassenMPITrace(DefaultLassenConfig()) },
			opt:         MessagePassingOptions(),
			wantPattern: "a a a a a a a a a a a a",
			wantPhases:  12,
			wantMaxStep: 47,
		},
		{
			name:        "nasbt-9",
			gen:         func() (*Trace, error) { return NASBTTrace(DefaultNASBTConfig()) },
			opt:         MessagePassingOptions(),
			wantPattern: "a*3 a*4 a*3 a*2 a a*3 a*4 a*3 a*2 a a*3 a*4 a*3 a*2 a",
			wantPhases:  39,
			wantMaxStep: 47,
		},
		{
			name:        "pdes-16",
			gen:         func() (*Trace, error) { return PDESTrace(DefaultPDESConfig()) },
			opt:         DefaultOptions(),
			wantPattern: "a*2",
			wantPhases:  2,
			wantMaxStep: 21,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr, err := c.gen()
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			s, err := Extract(tr, c.opt)
			if err != nil {
				t.Fatalf("Extract: %v", err)
			}
			if got := phasePattern(s); got != c.wantPattern {
				t.Errorf("pattern = %q, want %q", got, c.wantPattern)
			}
			if got := s.NumPhases(); got != c.wantPhases {
				t.Errorf("phases = %d, want %d", got, c.wantPhases)
			}
			if got := s.MaxStep(); got != c.wantMaxStep {
				t.Errorf("max step = %d, want %d", got, c.wantMaxStep)
			}
		})
	}
}
